// Crash-recovery supervisor for checkpointed target replays (DESIGN.md
// §12).
//
// run_supervised_stream drives replay_target_checkpointed_stream /
// resume_target_checkpointed_stream for any ReplayTarget with a checkpoint
// cadence, installing every emitted checkpoint into a DurableStore as a
// sealed generation.  When a run dies — in these tests, deterministically,
// at a fault::CrashPoint; in production, by any process death whose
// remains the store's recovery ladder can judge — the supervisor starts a
// fresh attempt: it scans the store newest→oldest, skips every torn /
// bit-flipped / shape-mismatched generation (each skip recorded with its
// typed Status), restores the newest valid one and replays the suffix.
// Attempts are bounded with exponential backoff; a run that completes
// produces stats bit-identical to an uninterrupted run, because every
// generation is a consistent cut and resume replays exactly the ops the
// cut excluded.
//
// Crash injection never unwinds through the engine (workers waiting on the
// ring would deadlock the jthread join): the install sink asks the
// dispatch loop to stop cooperatively via the checkpointer's
// stop_requested() hook, so a "crash" ends the run at the cut that was
// just (or just not) installed — exactly the prefix a killed process would
// leave behind.
//
// Crash ordinals count checkpoint-install attempts cumulatively across
// recovery attempts: a crash scheduled at ordinal k fires once, and the
// retry that follows starts counting at k+1, so every attempt makes
// progress and a plan with N crashes needs at most N+1 attempts.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "p4lru/fault/fault_plan.hpp"
#include "p4lru/fault/status.hpp"
#include "p4lru/obs/metrics.hpp"
#include "p4lru/replay/durable_store.hpp"
#include "p4lru/replay/target_checkpoint.hpp"

namespace p4lru::replay {

struct SupervisorConfig {
    std::uint64_t every_batches = 8;  ///< checkpoint-install cadence
    std::size_t max_attempts = 8;     ///< runs started before giving up
    std::uint64_t backoff_base_us = 100;
    std::uint64_t backoff_cap_us = 10'000;
    bool sleep_backoff = false;  ///< actually sleep (tests only account)
    /// Live metrics sink (obs/metrics.hpp); null = no instrumentation.
    /// Counters supervisor_attempts/crashes/installs, gauge
    /// supervisor_backoff_us (latest delay), histogram
    /// supervisor_serialize_ns (checkpoint image serialization).  Passed
    /// through neither to the engine nor the store — set their own hooks
    /// (ShardedConfig::metrics, DurableStoreConfig::metrics) to the same
    /// registry for the full picture.
    obs::Registry* metrics = nullptr;
};

/// Backoff before retry attempt `attempt` (1-based): min(base << (attempt-1),
/// cap), saturating.
[[nodiscard]] std::uint64_t backoff_delay_us(const SupervisorConfig& cfg,
                                             std::size_t attempt);

/// Sleep helper behind SupervisorConfig::sleep_backoff.
void sleep_us(std::uint64_t us);

/// The outcome of a supervised run that eventually completed.
template <typename Stats>
struct SupervisedReport {
    BasicShardedReport<Stats> report;  ///< as if never interrupted
    std::size_t attempts = 0;          ///< runs started (1 == no crash)
    std::size_t crashes = 0;           ///< injected crashes survived
    std::uint64_t installs = 0;        ///< checkpoint installs attempted
    std::uint64_t backoff_us = 0;      ///< total retry backoff accounted
    std::uint64_t resumed_from_gen = 0;  ///< newest gen restored (0 = only
                                         ///< cold starts)
    std::vector<GenerationRejection> rejected;  ///< every skipped gen
};

namespace detail {

/// The supervisor's checkpoint sink: serialize, consult the crash plan at
/// this install ordinal, drive the store's (possibly crashing) install,
/// and — on a crash or an install IO failure — ask the dispatch loop to
/// stop at the cut.  It takes the cut's snapshot as is: the seal and the
/// install read the target's planes in place while the cut is quiesced,
/// and nothing borrowed outlives the call.
template <typename Stats>
class CrashingStoreSink {
  public:
    static constexpr bool kTakesSnapshot = true;

    CrashingStoreSink(DurableStore& store, const fault::FaultPlan* plan,
                      std::uint64_t& ordinal,
                      obs::Histogram* serialize_ns = nullptr)
        : store_(&store), plan_(plan), ordinal_(&ordinal),
          serialize_ns_(serialize_ns) {}

    void operator()(TargetSnapshot<Stats>&& cp) {
        const std::uint64_t ordinal = (*ordinal_)++;
        const fault::CrashEvent* crash =
            plan_ != nullptr ? plan_->crash_at(ordinal) : nullptr;
        SerializedCheckpoint image;
        if (serialize_ns_ != nullptr) {
            const auto t0 = std::chrono::steady_clock::now();
            image = serialize_target_checkpoint(std::move(cp));
            serialize_ns_->record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count()));
        } else {
            image = serialize_target_checkpoint(std::move(cp));
        }
        Expected<InstallOutcome> out =
            store_->install_with_crash(image, crash);
        if (!out.is_ok()) {
            error_ = out.status();
            stop_ = true;
            return;
        }
        if (out.value().crashed) {
            crashed_ = true;
            stop_ = true;
        }
    }

    [[nodiscard]] bool stop_requested() const noexcept { return stop_; }
    [[nodiscard]] bool crashed() const noexcept { return crashed_; }
    [[nodiscard]] const Status& error() const noexcept { return error_; }

  private:
    DurableStore* store_;
    const fault::FaultPlan* plan_;
    std::uint64_t* ordinal_;
    obs::Histogram* serialize_ns_ = nullptr;
    bool stop_ = false;
    bool crashed_ = false;
    Status error_ = Status::ok();
};

}  // namespace detail

/// Stream an op source through a checkpointed, store-backed,
/// crash-surviving replay.
///
/// `make_target` is called once per attempt and must return a *fresh*
/// target (by value or by reference) — a crashed attempt's in-memory state
/// is abandoned, exactly as a process death would abandon it; all carried
/// state comes back through the store.  Each attempt repositions the
/// source itself: a cold start seeks to 0, a recovery resumes by seeking
/// to the restored checkpoint's cursor, so an on-disk source re-reads only
/// the suffix bytes after a crash.  `plan` schedules deterministic crashes
/// (pass an empty plan — or one without crash events — for a plain durable
/// run); `faults` is the usual engine fault hook set and composes freely.
///
/// Completes with a SupervisedReport whose `report` is bit-identical to an
/// uninterrupted replay of the same ops, or fails with kUnavailable after
/// `max_attempts` runs (last failure cause appended).  A seek or
/// mid-stream source failure fails the attempt like any other failure —
/// and retries, since trace I/O errors may be transient.
template <typename TargetFactory, typename Source,
          typename Faults = fault::NoFaults>
[[nodiscard]] auto run_supervised_stream(TargetFactory&& make_target,
                                         Source& source,
                                         const ShardedConfig& cfg,
                                         DurableStore& store,
                                         const SupervisorConfig& sup = {},
                                         const fault::FaultPlan& plan = {},
                                         const Faults& faults = {}) {
    using Target = std::remove_reference_t<decltype(make_target())>;
    using Stats = typename Target::Stats;
    using Report = SupervisedReport<Stats>;

    Report out;
    std::uint64_t install_ordinal = 0;
    Status last_failure = Status::ok();
    const std::size_t max_attempts = sup.max_attempts ? sup.max_attempts : 1;

    obs::Counter* obs_attempts = nullptr;
    obs::Counter* obs_crashes = nullptr;
    obs::Counter* obs_installs = nullptr;
    obs::Gauge* obs_backoff = nullptr;
    obs::Histogram* obs_serialize = nullptr;
    if (sup.metrics != nullptr) {
        obs_attempts = sup.metrics->counter("supervisor_attempts");
        obs_crashes = sup.metrics->counter("supervisor_crashes");
        obs_installs = sup.metrics->counter("supervisor_installs");
        obs_backoff = sup.metrics->gauge("supervisor_backoff_us");
        obs_serialize = sup.metrics->histogram("supervisor_serialize_ns");
    }

    while (out.attempts < max_attempts) {
        if (out.attempts > 0) {
            const std::uint64_t delay = backoff_delay_us(sup, out.attempts);
            out.backoff_us += delay;
            if (obs_backoff != nullptr) {
                obs_backoff->set(static_cast<std::int64_t>(delay));
            }
            if (sup.sleep_backoff) sleep_us(delay);
        }
        ++out.attempts;
        if (obs_attempts != nullptr) obs_attempts->add(1);

        decltype(auto) target_holder = make_target();
        Target& target = target_holder;

        // Recovery ladder: newest generation that parses, CRC-verifies AND
        // fits this target over this op stream.  Semantic validation runs
        // inside the scan so a shape-mismatched generation is skipped like
        // a torn one instead of failing the attempt.
        auto recovery = store.recover_newest(
            [&target, n = static_cast<std::size_t>(source.size())](
                const std::vector<std::byte>& image,
                const std::string& origin)
                -> Expected<TargetCheckpoint<Stats>> {
                Expected<TargetCheckpoint<Stats>> cp =
                    parse_target_checkpoint<Stats>(image, origin);
                if (!cp.is_ok()) return cp;
                if (Status st =
                        validate_target_checkpoint(target, n, cp.value());
                    !st.is_ok()) {
                    return st;
                }
                return cp;
            });
        for (auto& r : recovery.rejected) {
            out.rejected.push_back(std::move(r));
        }

        detail::CrashingStoreSink<Stats> sink(store, &plan, install_ordinal,
                                              obs_serialize);
        const std::uint64_t before = install_ordinal;
        BasicShardedReport<Stats> rep;
        Expected<BasicShardedReport<Stats>> run = Status::ok();
        if (recovery.found) {
            out.resumed_from_gen = recovery.gen.seq;
            // The resume seeks the source to the checkpoint cursor itself.
            run = resume_target_checkpointed_stream(
                target, source, recovery.checkpoint, cfg, sup.every_batches,
                sink, faults);
        } else if (Status st = source.seek(0); !st.is_ok()) {
            run = st;
        } else {
            run = replay_target_checkpointed_stream(target, source, cfg,
                                                    sup.every_batches, sink,
                                                    faults);
        }
        if (!run.is_ok()) {
            // Either a state-image/target disagreement (load_state refusal
            // — the scan validated the checkpoint, so the bad generation
            // ages out of the ladder via fresher installs) or a source
            // seek/stream failure: count it as a failed attempt and retry.
            last_failure = run.status();
            out.installs += install_ordinal - before;
            if (obs_installs != nullptr) {
                obs_installs->add(install_ordinal - before);
            }
            continue;
        }
        rep = std::move(run).value();
        out.installs += install_ordinal - before;
        if (obs_installs != nullptr) {
            obs_installs->add(install_ordinal - before);
        }

        if (!sink.error().is_ok()) {
            last_failure = sink.error();
            continue;
        }
        if (sink.crashed()) {
            ++out.crashes;
            if (obs_crashes != nullptr) obs_crashes->add(1);
            last_failure =
                Status(ErrorCode::kUnavailable,
                       "supervised run crashed at install ordinal " +
                           std::to_string(install_ordinal - 1));
            continue;
        }
        out.report = std::move(rep);
        return Expected<Report>(std::move(out));
    }
    return Expected<Report>(Status(
        ErrorCode::kUnavailable,
        "supervised replay gave up after " + std::to_string(out.attempts) +
            " attempts; last failure: " + last_failure.to_string()));
}

}  // namespace p4lru::replay
