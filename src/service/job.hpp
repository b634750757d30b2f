// Service-plane job vocabulary: what a client submits to fdmld, what it
// gets back, and why a submission may be refused. Codecs follow the
// parallel protocol's discipline (util/packer.hpp endian-stable fields,
// sealed with the integrity footer on the wire) so a corrupt submission is
// a counted reject, never a crash.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace fdml {

class Unpacker;

/// One search job: a stepwise-addition run over the service's dataset with
/// this jumble seed and rearrangement settings. Many concurrent jobs with
/// different seeds are exactly the paper's "tens to thousands of
/// randomizations" workload, arriving as traffic instead of a batch loop.
struct JobSpec {
  std::uint64_t seed = 1;
  int rearrange_cross = 1;
  int final_rearrange_cross = 1;
  /// Optional client label, carried into logs (job ids, not names, key the
  /// job.<id>.* metrics so two clients cannot collide).
  std::string name;

  std::vector<std::uint8_t> encode() const;
  static JobSpec unpack(Unpacker& in);
  /// The whole of `payload` as one JobSpec; throws on malformed or
  /// trailing bytes.
  static JobSpec decode(const std::vector<std::uint8_t>& payload);
};

/// Why the admission controller refused a submission.
enum class RejectReason : std::uint8_t {
  /// Active + queued jobs are at capacity; resubmit later. The bound is the
  /// load-shedding contract: the service degrades by refusing, never by
  /// growing an unbounded queue.
  kQueueFull = 1,
  /// The service is draining (SIGTERM): no new work, in-flight jobs are
  /// being checkpointed.
  kDraining = 2,
  /// The submission payload failed integrity or decoding.
  kBadRequest = 3,
};

const char* reject_reason_name(RejectReason reason);

enum class JobStatus : std::uint8_t {
  /// Search ran to completion; tree and likelihood are authoritative.
  kDone = 0,
  /// Drain interrupted the job after a durable checkpoint;
  /// resume_generation names the checkpoint a resubmit resumes from.
  kInterrupted = 1,
  /// The supervisor exhausted its retry budget; `error` says why.
  kFailed = 2,
};

struct JobOutcome {
  std::uint64_t job_id = 0;
  JobStatus status = JobStatus::kFailed;
  std::string newick;
  double log_likelihood = 0.0;
  /// kInterrupted: checkpoint generation to resume from (0 = none written).
  std::uint64_t resume_generation = 0;
  /// Supervisor retries this job consumed (attempts beyond the first).
  std::uint32_t retries = 0;
  std::string error;

  std::vector<std::uint8_t> encode() const;
  static JobOutcome unpack(Unpacker& in);
  /// The whole of `payload` as one JobOutcome; throws like JobSpec::decode.
  static JobOutcome decode(const std::vector<std::uint8_t>& payload);
};

}  // namespace fdml
