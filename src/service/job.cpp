#include "service/job.hpp"

#include "util/packer.hpp"

namespace fdml {

namespace {
constexpr std::uint8_t kJobSpecVersion = 1;
constexpr std::uint8_t kJobOutcomeVersion = 1;
}  // namespace

std::vector<std::uint8_t> JobSpec::encode() const {
  Packer p;
  p.put_u8(kJobSpecVersion);
  p.put_u64(seed);
  p.put_i32(rearrange_cross);
  p.put_i32(final_rearrange_cross);
  p.put_string(name);
  return p.take();
}

JobSpec JobSpec::unpack(Unpacker& u) {
  if (u.get_u8() != kJobSpecVersion) {
    throw std::runtime_error("JobSpec: unknown version");
  }
  JobSpec spec;
  spec.seed = u.get_u64();
  spec.rearrange_cross = u.get_i32();
  spec.final_rearrange_cross = u.get_i32();
  spec.name = u.get_string();
  return spec;
}

JobSpec JobSpec::decode(const std::vector<std::uint8_t>& payload) {
  return unpack_all(Unpacker(payload), unpack);
}

const char* reject_reason_name(RejectReason reason) {
  switch (reason) {
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kDraining: return "draining";
    case RejectReason::kBadRequest: return "bad_request";
  }
  return "unknown";
}

std::vector<std::uint8_t> JobOutcome::encode() const {
  Packer p;
  p.put_u8(kJobOutcomeVersion);
  p.put_u64(job_id);
  p.put_u8(static_cast<std::uint8_t>(status));
  p.put_string(newick);
  p.put_f64(log_likelihood);
  p.put_u64(resume_generation);
  p.put_u32(retries);
  p.put_string(error);
  return p.take();
}

JobOutcome JobOutcome::unpack(Unpacker& u) {
  if (u.get_u8() != kJobOutcomeVersion) {
    throw std::runtime_error("JobOutcome: unknown version");
  }
  JobOutcome outcome;
  outcome.job_id = u.get_u64();
  const auto status = u.get_u8();
  if (status > static_cast<std::uint8_t>(JobStatus::kFailed)) {
    throw std::runtime_error("JobOutcome: bad status");
  }
  outcome.status = static_cast<JobStatus>(status);
  outcome.newick = u.get_string();
  outcome.log_likelihood = u.get_f64();
  outcome.resume_generation = u.get_u64();
  outcome.retries = u.get_u32();
  outcome.error = u.get_string();
  return outcome;
}

JobOutcome JobOutcome::decode(const std::vector<std::uint8_t>& payload) {
  return unpack_all(Unpacker(payload), unpack);
}

}  // namespace fdml
