// Tests for the durable-state subsystem: framed records, the torn-file
// corpus, the generational checkpoint store, seeded filesystem fault
// injection, checkpointed search recovery, and the master supervisor's
// retry budget. The headline invariant throughout: for any seeded crash
// point, resuming produces bit-for-bit the same final tree as an
// uninterrupted run.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "comm/transport.hpp"
#include "durable/checkpoint_store.hpp"
#include "durable/fault_vfs.hpp"
#include "durable/frame.hpp"
#include "durable/vfs.hpp"
#include "model/simulate.hpp"
#include "parallel/master.hpp"
#include "parallel/protocol.hpp"
#include "search/search.hpp"
#include "seq/alphabet.hpp"
#include "seq/fingerprint.hpp"

namespace fdml {
namespace {

using std::chrono::milliseconds;

/// Fresh scratch directory per test, removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("fdml_durable_" + tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
  std::filesystem::path path;
};

std::vector<std::uint8_t> bytes_of(const std::string& text) {
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

// --- frames ---

TEST(DurableFrame, EncodeDecodeRoundTrip) {
  DurableFrame frame;
  frame.kind = kFrameSearchCheckpoint;
  frame.fingerprint = 0xfeedfacecafebeefULL;
  frame.generation = 42;
  frame.payload = bytes_of("hello durable world");

  const auto encoded = encode_frame(frame);

  std::size_t pos = 0;
  const auto back = decode_frame(encoded.data(), encoded.size(), pos);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(pos, encoded.size());
  EXPECT_EQ(back->kind, frame.kind);
  EXPECT_EQ(back->fingerprint, frame.fingerprint);
  EXPECT_EQ(back->generation, frame.generation);
  EXPECT_EQ(back->payload, frame.payload);
}

TEST(DurableFrame, DecodesConsecutiveFrames) {
  DurableFrame a, b;
  a.kind = 2;  // any application kind
  a.generation = 1;
  a.payload = bytes_of("first");
  b.kind = 2;
  b.generation = 2;
  b.payload = bytes_of("second, longer payload");

  auto stream = encode_frame(a);
  const auto second = encode_frame(b);
  stream.insert(stream.end(), second.begin(), second.end());

  std::size_t pos = 0;
  const auto first_back = decode_frame(stream.data(), stream.size(), pos);
  ASSERT_TRUE(first_back.has_value());
  EXPECT_EQ(first_back->payload, a.payload);
  const auto second_back = decode_frame(stream.data(), stream.size(), pos);
  ASSERT_TRUE(second_back.has_value());
  EXPECT_EQ(second_back->payload, b.payload);
  EXPECT_EQ(pos, stream.size());
}

// The torn-file corpus (ISSUE satellite): truncate the file at EVERY byte
// boundary and corrupt EVERY single byte; the loader must reject each
// mutation with nullopt and never crash (this suite also runs under ASan).
TEST(DurableFrame, TornFileCorpusNeverCrashesTheLoader) {
  DurableFrame frame;
  frame.kind = kFrameSearchCheckpoint;
  frame.fingerprint = 7;
  frame.generation = 3;
  frame.payload = bytes_of("payload under attack");
  const auto encoded = encode_frame(frame);

  // Every truncation length except the full file is invalid.
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    std::size_t pos = 0;
    EXPECT_FALSE(decode_frame(encoded.data(), cut, pos).has_value())
        << "truncation at byte " << cut << " decoded";
    EXPECT_EQ(pos, 0u);
  }

  // Every single-byte corruption is caught: each byte is covered by the
  // magic check, a header sanity check, or the trailing digest.
  for (std::size_t at = 0; at < encoded.size(); ++at) {
    auto corrupt = encoded;
    corrupt[at] ^= 0x20;
    std::size_t pos = 0;
    EXPECT_FALSE(decode_frame(corrupt.data(), corrupt.size(), pos).has_value())
        << "flipping byte " << at << " went undetected";
  }

  // Declared payload size larger than the buffer must not read past the end.
  auto oversize = encoded;
  oversize[32] = 0xff;  // payload-size field, little-endian low byte
  std::size_t pos = 0;
  EXPECT_FALSE(decode_frame(oversize.data(), oversize.size(), pos).has_value());
}

TEST(DurableFrame, FrameFileRejectsTrailingGarbageAndMissing) {
  ScratchDir dir("framefile");
  const std::string path = dir.file("one.frame");
  DurableFrame frame;
  frame.kind = kFrameSearchCheckpoint;
  frame.payload = bytes_of("x");
  write_frame_file_atomic(real_vfs(), path, frame);
  ASSERT_TRUE(read_frame_file(real_vfs(), path).has_value());

  const std::uint8_t junk = 0xab;
  real_vfs().append_file(path, &junk, 1);
  EXPECT_FALSE(read_frame_file(real_vfs(), path).has_value());
  EXPECT_FALSE(read_frame_file(real_vfs(), dir.file("missing")).has_value());
}

// --- checkpoint store ---

TEST(CheckpointStore, KeepsLastGenerationsAndBaseCopy) {
  ScratchDir dir("store");
  const std::string base = dir.file("run.ckpt");
  CheckpointStore store(base, {.keep = 3});

  for (int i = 1; i <= 5; ++i) {
    const auto generation = store.commit(kFrameSearchCheckpoint, 99,
                                         bytes_of("gen " + std::to_string(i)));
    EXPECT_EQ(generation, static_cast<std::uint64_t>(i));
  }

  EXPECT_FALSE(real_vfs().exists(base + ".gen-1"));
  EXPECT_FALSE(real_vfs().exists(base + ".gen-2"));
  EXPECT_TRUE(real_vfs().exists(base + ".gen-3"));
  EXPECT_TRUE(real_vfs().exists(base + ".gen-5"));
  // The base path still holds a loadable copy of the newest generation
  // (compat with tools that predate the store).
  const auto at_base = read_frame_file(real_vfs(), base);
  ASSERT_TRUE(at_base.has_value());
  EXPECT_EQ(at_base->generation, 5u);

  const auto recovered = store.recover(99);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->generation, 5u);
  EXPECT_EQ(recovered->frame.payload, bytes_of("gen 5"));
}

TEST(CheckpointStore, RollsBackPastACorruptNewestGeneration) {
  ScratchDir dir("rollback");
  CheckpointStore store(dir.file("run.ckpt"), {.keep = 3});
  store.commit(kFrameSearchCheckpoint, 7, bytes_of("good"));
  store.commit(kFrameSearchCheckpoint, 7, bytes_of("doomed"));

  // Corrupt generation 2 AND the base copy: recovery must roll back to 1.
  for (const std::string& path :
       {dir.file("run.ckpt.gen-2"), dir.file("run.ckpt")}) {
    auto bytes = *real_vfs().read_file(path);
    bytes[bytes.size() / 2] ^= 0xff;
    real_vfs().write_file(path, bytes.data(), bytes.size());
  }

  const auto recovered = store.recover(7);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->generation, 1u);
  EXPECT_EQ(recovered->frame.payload, bytes_of("good"));

  // The unreadable generation's number is never reused.
  EXPECT_EQ(store.commit(kFrameSearchCheckpoint, 7, bytes_of("next")), 3u);
}

TEST(CheckpointStore, RefusesACheckpointFromAnotherDataset) {
  ScratchDir dir("foreign");
  CheckpointStore store(dir.file("run.ckpt"), {});
  store.commit(kFrameSearchCheckpoint, 1111, bytes_of("theirs"));
  try {
    store.recover(2222);
    FAIL() << "foreign checkpoint accepted";
  } catch (const FingerprintMismatchError& error) {
    EXPECT_EQ(error.expected(), 2222u);
    EXPECT_EQ(error.found(), 1111u);
    // The message must name both sides of the disagreement.
    EXPECT_NE(std::string(error.what()).find("1111"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("2222"), std::string::npos);
  }
  EXPECT_TRUE(store.recover(0).has_value()) << "0 must accept any fingerprint";
}

// --- filesystem fault injection ---

TEST(FaultVfs, ErrorFaultsSurfaceAndLeaveNoState) {
  ScratchDir dir("eio");
  FaultPlan plan;
  plan.seed = 11;
  plan.fs_error = 1.0;
  FaultVfs vfs(real_vfs(), plan);
  CheckpointStore store(dir.file("run.ckpt"), {}, &vfs);
  EXPECT_THROW(store.commit(kFrameSearchCheckpoint, 1, bytes_of("x")),
               std::system_error);
  EXPECT_FALSE(store.recover(0).has_value());
}

TEST(FaultVfs, ShortWritesAreDetectedByRecovery) {
  ScratchDir dir("enospc");
  FaultPlan plan;
  plan.seed = 13;
  plan.fs_short_write = 1.0;
  FaultVfs vfs(real_vfs(), plan);
  CheckpointStore store(dir.file("run.ckpt"), {}, &vfs);
  EXPECT_THROW(store.commit(kFrameSearchCheckpoint, 1, bytes_of("payload")),
               std::system_error);
  // Whatever prefix reached the disk must not recover as a checkpoint.
  EXPECT_FALSE(store.recover(0).has_value());
}

// Crash at EVERY mutating filesystem op of a commit sequence; after each
// simulated kill -9, recovery must return a fully intact checkpoint no
// older than the last commit() that returned success.
TEST(FaultVfs, CrashAtEveryOpAlwaysRecoversAnIntactCheckpoint) {
  const std::vector<std::vector<std::uint8_t>> payloads = {
      bytes_of("one"), bytes_of("two"), bytes_of("three"), bytes_of("four")};

  // Fault-free rehearsal to learn the op count.
  std::uint64_t total_ops = 0;
  {
    ScratchDir dir("rehearsal");
    FaultVfs vfs(real_vfs(), FaultPlan{});
    CheckpointStore store(dir.file("run.ckpt"), {.keep = 2}, &vfs);
    for (const auto& payload : payloads) {
      store.commit(kFrameSearchCheckpoint, 5, payload);
    }
    total_ops = vfs.mutating_ops();
  }
  ASSERT_GT(total_ops, 8u);

  for (std::uint64_t crash_at = 1; crash_at <= total_ops; ++crash_at) {
    ScratchDir dir("crash" + std::to_string(crash_at));
    FaultPlan plan;
    plan.seed = 1000 + crash_at;
    plan.fs_crash_at_op = crash_at;
    FaultVfs vfs(real_vfs(), plan);
    CheckpointStore store(dir.file("run.ckpt"), {.keep = 2}, &vfs);

    std::size_t committed = 0;
    try {
      for (const auto& payload : payloads) {
        store.commit(kFrameSearchCheckpoint, 5, payload);
        ++committed;
      }
    } catch (const DurableCrash&) {
    }
    ASSERT_TRUE(vfs.crashed());
    ASSERT_LT(committed, payloads.size());

    // Post-mortem through the REAL filesystem: whatever the crash left
    // behind, recovery returns an intact committed payload.
    CheckpointStore survivor(dir.file("run.ckpt"), {.keep = 2});
    const auto recovered = survivor.recover(5);
    if (committed == 0 && !recovered.has_value()) continue;  // nothing yet
    ASSERT_TRUE(recovered.has_value())
        << "crash at op " << crash_at << " lost " << committed
        << " acknowledged commit(s)";
    ASSERT_GE(recovered->generation, committed)
        << "crash at op " << crash_at << " rolled back an acknowledged commit";
    ASSERT_LE(recovered->generation, payloads.size());
    EXPECT_EQ(recovered->frame.payload, payloads[recovered->generation - 1])
        << "crash at op " << crash_at << " recovered a torn payload";
  }
}

// --- search checkpoint durability ---

struct SearchFixture {
  SearchFixture()
      : alignment(make_paper_like_dataset(8, 120, 5)), data(alignment) {}
  Alignment alignment;
  PatternAlignment data;
};

TEST(DurableSearch, AlignmentFingerprintSeparatesDatasets) {
  SearchFixture fx;
  const PatternAlignment other(make_paper_like_dataset(8, 120, 6));
  EXPECT_EQ(alignment_fingerprint(fx.data), alignment_fingerprint(fx.data));
  EXPECT_NE(alignment_fingerprint(fx.data), alignment_fingerprint(other));
}

TEST(DurableSearch, CheckpointIoFailureStopsTheSearch) {
  SearchFixture fx;
  ScratchDir dir("savefail");
  SerialTaskRunner runner(fx.data, SubstModel::jc69(), RateModel::uniform());
  SearchOptions options;
  options.seed = 9;
  options.checkpoint_path = dir.file("run.ckpt");
  FaultPlan plan;
  plan.fs_error = 1.0;
  FaultVfs vfs(real_vfs(), plan);
  options.vfs = &vfs;
  EXPECT_THROW(StepwiseSearch(fx.data, options).run(runner), std::system_error);
  EXPECT_FALSE(recover_checkpoint(options.checkpoint_path, 0).has_value());

  options.vfs = nullptr;  // the real filesystem works
  const SearchResult result = StepwiseSearch(fx.data, options).run(runner);
  const auto recovered = recover_checkpoint(options.checkpoint_path, 0);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->checkpoint.tree_newick, result.best_newick);
}

TEST(DurableSearch, RecoverCheckpointChecksTheDatasetFingerprint) {
  SearchFixture fx;
  ScratchDir dir("fp_check");
  const std::string path = dir.file("run.ckpt");
  const std::uint64_t fingerprint = alignment_fingerprint(fx.data);

  SerialTaskRunner runner(fx.data, SubstModel::jc69(), RateModel::uniform());
  SearchOptions options;
  options.seed = 9;
  options.checkpoint_path = path;
  options.dataset_fingerprint = fingerprint;
  StepwiseSearch(fx.data, options).run(runner);

  const auto recovered = recover_checkpoint(path, fingerprint);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->checkpoint.dataset_fingerprint, fingerprint);
  EXPECT_EQ(recovered->checkpoint.next_order_index, 8);
  EXPECT_GT(recovered->generation, 0u);

  EXPECT_THROW(recover_checkpoint(path, fingerprint + 1),
               FingerprintMismatchError);
  EXPECT_TRUE(recover_checkpoint(path, 0).has_value());
  EXPECT_FALSE(recover_checkpoint(dir.file("absent"), 0).has_value());
}

TEST(DurableSearch, StopRequestCommitsThenInterrupts) {
  SearchFixture fx;
  ScratchDir dir("stop");
  SerialTaskRunner runner(fx.data, SubstModel::jc69(), RateModel::uniform());
  SearchOptions options;
  options.seed = 9;
  options.checkpoint_path = dir.file("run.ckpt");
  options.dataset_fingerprint = alignment_fingerprint(fx.data);
  options.stop_requested = [] { return true; };  // "SIGINT" immediately

  std::uint64_t generation = 0;
  try {
    StepwiseSearch(fx.data, options).run(runner);
    FAIL() << "stop request ignored";
  } catch (const SearchInterrupted& interrupted) {
    generation = interrupted.generation();
  }
  EXPECT_GT(generation, 0u);
  // The interrupting checkpoint is durable and resumable.
  const auto recovered =
      recover_checkpoint(options.checkpoint_path, options.dataset_fingerprint);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->generation, generation);
}

// The headline invariant, in-process: crash the search at EVERY mutating
// filesystem op of its checkpoint stream, recover, resume, and require the
// exact final tree and likelihood of the uninterrupted run.
TEST(DurableSearch, CrashAtEveryOpResumesToTheIdenticalResult) {
  SearchFixture fx;
  SerialTaskRunner runner(fx.data, SubstModel::jc69(), RateModel::uniform());
  const std::uint64_t fingerprint = alignment_fingerprint(fx.data);

  SearchOptions base_options;
  base_options.seed = 9;
  base_options.dataset_fingerprint = fingerprint;

  // Reference: uninterrupted, no checkpointing at all.
  const SearchResult reference =
      StepwiseSearch(fx.data, base_options).run(runner);

  // Rehearsal with checkpoints through a fault-free FaultVfs: op count.
  std::uint64_t total_ops = 0;
  {
    ScratchDir dir("rehearsal");
    FaultVfs vfs(real_vfs(), FaultPlan{});
    SearchOptions options = base_options;
    options.checkpoint_path = dir.file("run.ckpt");
    options.vfs = &vfs;
    const SearchResult checkpointed =
        StepwiseSearch(fx.data, options).run(runner);
    EXPECT_EQ(checkpointed.best_newick, reference.best_newick)
        << "checkpointing must not perturb the search";
    total_ops = vfs.mutating_ops();
  }
  ASSERT_GT(total_ops, 20u) << "expected many commit points to crash at";

  for (std::uint64_t crash_at = 1; crash_at <= total_ops; ++crash_at) {
    ScratchDir dir("op" + std::to_string(crash_at));
    const std::string path = dir.file("run.ckpt");
    FaultPlan plan;
    plan.seed = 4000 + crash_at;
    plan.fs_crash_at_op = crash_at;
    FaultVfs vfs(real_vfs(), plan);

    SearchOptions crashing = base_options;
    crashing.checkpoint_path = path;
    crashing.vfs = &vfs;
    bool crashed = false;
    try {
      StepwiseSearch(fx.data, crashing).run(runner);
    } catch (const DurableCrash&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed) << "op " << crash_at << " never executed";

    // "Process restart": recover through the real filesystem and resume.
    SearchResult final_result;
    const auto recovered = recover_checkpoint(path, fingerprint);
    SearchOptions resuming = base_options;
    resuming.checkpoint_path = path;  // keep checkpointing while resumed
    if (recovered.has_value()) {
      final_result = StepwiseSearch(fx.data, resuming)
                         .resume(runner, recovered->checkpoint);
    } else {
      // Crashed before anything durable: a fresh run must still match.
      final_result = StepwiseSearch(fx.data, resuming).run(runner);
    }

    EXPECT_EQ(final_result.best_newick, reference.best_newick)
        << "crash at op " << crash_at << " changed the final tree";
    EXPECT_DOUBLE_EQ(final_result.best_log_likelihood,
                     reference.best_log_likelihood)
        << "crash at op " << crash_at << " changed the final likelihood";
  }
}

// --- master supervisor ---

TEST(MasterSupervisor, ExhaustedRetriesDegradeToFallback) {
  ThreadFabric fabric(4);  // nobody home at the foreman rank
  auto endpoint = fabric.endpoint(kMasterRank);
  MasterOptions options;
  options.watchdog_timeout = milliseconds(80);
  options.max_round_retries = 1;
  Alignment alignment;
  alignment.add_sequence("a", string_to_codes("ACGTACGTAC"));
  alignment.add_sequence("b", string_to_codes("ACGTACGAAC"));
  alignment.add_sequence("c", string_to_codes("ACCTACGTTC"));
  const PatternAlignment data(alignment);
  ParallelMaster master(*endpoint, 1, data, SubstModel::jc69(),
                        RateModel::uniform(), options);

  TreeTask task;
  task.task_id = 1;
  task.newick = "(a:1,b:1,c:1);";
  // Both attempts trip the watchdog; the round is then evaluated in-process.
  const RoundOutcome outcome = master.run_round({task});
  EXPECT_EQ(outcome.best.task_id, 1u);
  EXPECT_EQ(master.stats().round_retries, 1u);
  EXPECT_EQ(master.stats().watchdog_trips, 2u);
  EXPECT_EQ(master.stats().serial_fallbacks, 1u);
}

}  // namespace
}  // namespace fdml
