// perfbench: shared declarations — run options, metric records, the in-memory
// span recorder, and the forwarding decoder the traced run hands to the
// serving engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/constrained_decoder.h"
#include "support/dynamic_bitset.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // decode-phase budget
  bool trace = false;     // per-layer run: spans on, twin untraced waves
  bool smoke = false;     // tiny vocab and a handful of requests
  int threads = 4;        // every thread count of the run: min(4, nproc)
  std::string work_dir;   // per-run scratch: disk tier, trace files
  std::string source_id;  // git SHA / source digest, for the fingerprint
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string better;   // "higher" / "lower"; empty for per-layer metrics
  std::int64_t n = 0;   // samples behind the value
};

struct WorkloadReport {
  // End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::map<std::string, Metric> metrics;
  // Traced run only: layer metrics of layers that run in this workload alone
  // (compose, artifact, ...). Printed and written to the summary file.
  std::map<std::string, Metric> extra;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // first few, for diagnosis
  std::uint64_t digest = 0;           // output token ids of the digest waves
  std::int64_t digest_requests = 0;
  std::map<std::string, std::string> config;  // fingerprint fields
};

WorkloadReport RunWorkload(const RunOptions& options);

double Percentile(std::vector<double> values, double q);  // q in [0, 1]
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// --- Span recorder ------------------------------------------------------------
//
// Spans are recorded only around calls the benchmark itself makes into the
// library (setup stages, admission, RunContinuous) and inside TracedDecoder.
// A span made on behalf of one request carries its id, so a request's
// admission and decoder calls can be followed across threads; its parent is
// the enclosing span of the same thread. Each thread appends to its own
// buffer; everything stays in memory until the summary and the Chrome
// trace-event file are written at exit.

enum class SpanScope : std::uint8_t {
  kThread,   // self time = duration minus nested spans of the same thread
  kProcess,  // self time = duration minus every span (any thread) inside it
};

struct SpanStats {
  std::string name;
  std::vector<double> duration_us;  // in recording order
  std::vector<double> self_us;      // same order
};

class Tracer {
 public:
  static Tracer& Instance();

  // Idempotent: the same name always maps to the same id.
  std::uint16_t Register(const std::string& name,
                         SpanScope scope = SpanScope::kThread);
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool Enabled() const { return enabled_.load(std::memory_order_relaxed); }

  static std::int64_t NowNs();
  void Record(std::uint16_t id, std::int64_t start_ns, std::int64_t end_ns,
              std::int32_t request);

  // Per-name durations and self times (names with no events are omitted).
  std::map<std::string, SpanStats> Summarize() const;
  // Chrome trace-event JSON ("X" events, microsecond timestamps). At most
  // `max_events` events are written (earliest first); the file says how many
  // were dropped. Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path, std::size_t max_events,
                        const std::string& metadata_json) const;

 private:
  struct Event {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t request;  // -1 = not on behalf of one request
    std::uint16_t id;
  };
  struct ThreadBuffer {
    int tid = 0;
    std::vector<Event> events;
  };
  ThreadBuffer* LocalBuffer();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<std::string> names_;
  std::vector<SpanScope> scopes_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

class Span {
 public:
  explicit Span(std::uint16_t id, std::int32_t request = -1)
      : id_(id),
        request_(request),
        start_ns_(Tracer::Instance().Enabled() ? Tracer::NowNs() : -1) {}
  ~Span() {
    if (start_ns_ >= 0) {
      Tracer::Instance().Record(id_, start_ns_, Tracer::NowNs(), request_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint16_t id_;
  std::int32_t request_;
  std::int64_t start_ns_;
};

// --- Forwarding decoder -----------------------------------------------------------

// Span ids for one decoder kind: `fill` is named after the layer that builds
// the mask, the rest after the layer that walks tokens.
struct DecoderSpans {
  std::string fill_layer, walk_layer;
  std::uint16_t fill, accept, verify, commit, jump_forward, rollback, reset;
  static DecoderSpans Register(const std::string& fill_layer,
                               const std::string& walk_layer);
};

// Keeps a thinned sample of the masks a workload produced, for the sampling
// kernel micro-measurement.
class MaskSample {
 public:
  MaskSample(std::size_t limit, std::int64_t every)
      : limit_(limit), every_(every) {}
  void Offer(const xgr::DynamicBitset& mask);
  std::vector<xgr::DynamicBitset> Take();

 private:
  std::size_t limit_;
  std::int64_t every_;
  std::atomic<std::int64_t> seen_{0};
  std::atomic<bool> full_{false};
  std::mutex mutex_;
  std::vector<xgr::DynamicBitset> masks_;
};

// Forwards every ConstrainedDecoder virtual to `inner`, wrapping the calls
// that do work in spans. Outputs are unchanged by construction; the traced
// run proves it by comparing output digests with its untraced twin waves.
class TracedDecoder final : public xgr::baselines::ConstrainedDecoder {
 public:
  TracedDecoder(std::shared_ptr<xgr::baselines::ConstrainedDecoder> inner,
                const DecoderSpans& spans, std::int32_t request, MaskSample* sample)
      : inner_(std::move(inner)), spans_(spans), request_(request), sample_(sample) {}

  const std::string& Name() const override { return inner_->Name(); }
  void FillNextTokenBitmask(xgr::DynamicBitset* mask) override {
    {
      Span span(spans_.fill, request_);
      inner_->FillNextTokenBitmask(mask);
    }
    if (sample_ != nullptr) sample_->Offer(*mask);
  }
  bool AcceptToken(std::int32_t token_id) override {
    Span span(spans_.accept, request_);
    return inner_->AcceptToken(token_id);
  }
  bool CanTerminate() override { return inner_->CanTerminate(); }
  void Reset() override {
    Span span(spans_.reset, request_);
    inner_->Reset();
  }
  bool RollbackTokens(std::int32_t count) override {
    Span span(spans_.rollback, request_);
    return inner_->RollbackTokens(count);
  }
  void VerifyDraft(const std::int32_t* draft, std::int32_t count,
                   xgr::baselines::DraftVerifyResult* result,
                   xgr::DynamicBitset* divergence_mask) override {
    Span span(spans_.verify, request_);
    inner_->VerifyDraft(draft, count, result, divergence_mask);
  }
  bool CommitDraft(std::int32_t keep) override {
    Span span(spans_.commit, request_);
    return inner_->CommitDraft(keep);
  }
  bool SupportsPartialCommit() const override {
    return inner_->SupportsPartialCommit();
  }
  std::size_t MaskBits() const override { return inner_->MaskBits(); }
  std::int32_t EosTokenId() const override { return inner_->EosTokenId(); }
  std::string FindJumpForwardString(std::int32_t max_length = 256) override {
    Span span(spans_.jump_forward, request_);
    return inner_->FindJumpForwardString(max_length);
  }
  double PreprocessSeconds() const override {
    return inner_->PreprocessSeconds();
  }
  const xgr::cache::MaskGenStats* MaskStats() const override {
    return inner_->MaskStats();
  }
  const xgr::compose::TagDispatchStats* DispatchStats() const override {
    return inner_->DispatchStats();
  }

 private:
  std::shared_ptr<xgr::baselines::ConstrainedDecoder> inner_;
  DecoderSpans spans_;
  std::int32_t request_;
  MaskSample* sample_;
};

}  // namespace perfbench
