// The three workloads: repeated setup rounds, the closed-loop decode phase,
// the output oracle and the derivation of every metric.
//
// Every request runs on a fresh decoder, the simulated forward pass is off
// (EngineOptions::time_scale = 0, so no timed region sleeps) and every thread
// count is set from RunOptions::threads. Batch composition depends only on
// step counts: all requests of a wave arrive at step 0 with a prebuilt
// decoder.
#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/tag_dispatch_decoder.h"
#include "baselines/xgrammar_decoder.h"
#include "bench.h"
#include "compose/tag_dispatch.h"
#include "datasets/workloads.h"
#include "engine/mock_llm.h"
#include "engine/sampler.h"
#include "engine/serving_engine.h"
#include "grammar/earley.h"
#include "grammar/grammar.h"
#include "grammar/json_schema.h"
#include "grammar/structural_tag.h"
#include "json/json.h"
#include "pda/compiled_grammar.h"
#include "runtime/compile_service.h"
#include "support/rng.h"
#include "support/timer.h"
#include "tokenizer/synthetic_vocab.h"
#include "tokenizer/token_trie.h"
#include "tokenizer/tokenizer_info.h"

namespace perfbench {
namespace {

using namespace xgr;  // NOLINT

constexpr std::uint64_t kVocabSeed = 2024;
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::size_t kMaxFailureNotes = 8;
// Setup rounds whose grammars the traced run also compiles stage by stage.
constexpr int kStageRounds = 2;

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void FnvAdd(std::uint64_t* hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    *hash ^= (value >> (8 * i)) & 0xFF;
    *hash *= 1099511628211ULL;
  }
}

struct SpanIdTable {
  std::uint16_t vocab, trie, compile, convert, pda, build, plan;
  std::uint16_t admit, hit, load, run, wave, sample, mock_logits;
  DecoderSpans xgrammar, tag_dispatch;
};

const SpanIdTable& Ids() {
  static const SpanIdTable ids = [] {
    Tracer& t = Tracer::Instance();
    SpanIdTable s{};
    s.vocab = t.Register("tokenizer.vocab");
    s.trie = t.Register("tokenizer.trie");
    s.compile = t.Register("runtime.compile");
    s.convert = t.Register("grammar.convert");
    s.pda = t.Register("pda.compile");
    s.build = t.Register("cache.build");
    s.plan = t.Register("compose.plan");
    s.admit = t.Register("engine.admit");
    s.hit = t.Register("runtime.hit");
    s.load = t.Register("artifact.load");
    s.run = t.Register("engine.run", SpanScope::kProcess);
    s.wave = t.Register("engine.wave");
    s.sample = t.Register("support.sample");
    s.mock_logits = t.Register("harness.mock_logits");
    s.xgrammar = DecoderSpans::Register("cache", "matcher");
    s.tag_dispatch = DecoderSpans::Register("compose", "compose");
    return s;
  }();
  return ids;
}

// Sizes of one workload; the smoke mode shrinks all of them.
struct Shape {
  std::int32_t vocab = 0;
  std::int32_t capacity = 0;
  std::int32_t wave_requests = 0;
  int setup_rounds = 0;
  int digest_waves = 0;  // always run; their outputs form the digest
  int max_waves = 0;
  int grammars = 0;      // schemas (schema_fc) or tools (agent_tags)
};

runtime::CompileServiceOptions ServiceOptions(const RunOptions& o,
                                              const std::string& disk_dir) {
  runtime::CompileServiceOptions options;
  options.num_threads = 1;                    // one build at a time
  options.cache_options.num_threads = o.threads;  // private pool per build
  options.registry.disk_dir = disk_dir;
  return options;
}

grammar::Grammar ConvertJob(const runtime::CompileJob& job) {
  switch (job.kind) {
    case runtime::GrammarKind::kEbnf:
      return grammar::ParseEbnfOrThrow(job.source, job.root_rule);
    case runtime::GrammarKind::kJsonSchema:
      return grammar::JsonSchemaTextToGrammar(job.source);
    case runtime::GrammarKind::kBuiltinJson:
      return grammar::BuiltinJsonGrammar();
    case runtime::GrammarKind::kTagSegment:
      return grammar::BuildTagSegmentGrammar(
          grammar::DecodeTagSegmentSource(job.source));
    case runtime::GrammarKind::kRegex:
      break;
  }
  throw std::runtime_error("perfbench: unsupported grammar kind");
}

// Every compile the workload makes, plus (traced run, first rounds) the same
// grammar's stages called directly, so the service's own overhead can be
// attributed.
struct CompileLog {
  bool time_stages = false;
  std::vector<double> convert_ms, pda_ms, build_ms, overhead_ms;
  struct Facts {
    std::int64_t nodes = 0;
    std::int64_t bytes = 0;
    std::int64_t ctx_tokens = 0;
    std::vector<double> service_ms;  // one per setup round that compiled it
  };
  std::map<std::string, Facts> distinct;  // by compile-job key
};

runtime::Artifact CompileOne(runtime::CompileService* service,
                             const runtime::CompileJob& job,
                             const RunOptions& o, CompileLog* log) {
  const SpanIdTable& ids = Ids();
  Timer timer;
  runtime::Artifact artifact;
  {
    Span span(ids.compile);
    artifact = service->Compile(job);
  }
  const double service_ms = timer.ElapsedMillis();
  CompileLog::Facts& facts = log->distinct[runtime::CompileJobKey(job)];
  facts.service_ms.push_back(service_ms);
  facts.nodes = artifact->Pda().NumNodes();
  facts.bytes = static_cast<std::int64_t>(artifact->MemoryBytes());
  facts.ctx_tokens = artifact->Stats().context_dependent;
  if (log->time_stages) {
    Timer convert_timer;
    grammar::Grammar g = [&] {
      Span span(ids.convert);
      return ConvertJob(job);
    }();
    const double convert_ms = convert_timer.ElapsedMillis();
    Timer pda_timer;
    std::shared_ptr<const pda::CompiledGrammar> pda;
    {
      Span span(ids.pda);
      pda = pda::CompiledGrammar::Compile(g);
    }
    const double pda_ms = pda_timer.ElapsedMillis();
    Timer build_timer;
    {
      Span span(ids.build);
      cache::AdaptiveCacheOptions cache_options;
      cache_options.num_threads = o.threads;
      cache::AdaptiveTokenMaskCache::Build(pda, service->Tokenizer(), cache_options);
    }
    const double build_ms = build_timer.ElapsedMillis();
    log->convert_ms.push_back(convert_ms);
    log->pda_ms.push_back(pda_ms);
    log->build_ms.push_back(build_ms);
    log->overhead_ms.push_back(service_ms - convert_ms - pda_ms - build_ms);
  }
  return artifact;
}

struct RequestInput {
  std::string target;
  std::int32_t grammar = 0;  // workload-specific grammar index
  std::uint64_t seed = 0;
};

// One workload: setup rounds, wave inputs, admission and its own oracle.
class Workload {
 public:
  Workload(const RunOptions& o, Shape shape) : o_(o), shape_(shape) {}
  virtual ~Workload() = default;

  const Shape& shape() const { return shape_; }
  const std::shared_ptr<const tokenizer::TokenizerInfo>& info() const { return info_; }
  CompileLog& compile_log() { return log_; }

  // Drops the previous round's products (untimed, before the next round).
  void Release() {
    ReleaseRound();
    trie_.reset();
    info_.reset();
  }

  // One complete setup: tokenizer, trie, then the workload's inputs and
  // compiles.
  void SetupRound(int round) {
    const SpanIdTable& ids = Ids();
    log_.time_stages = o_.trace && round < kStageRounds;
    {
      Span span(ids.vocab);
      info_ = std::make_shared<const tokenizer::TokenizerInfo>(
          tokenizer::BuildSyntheticVocab({.size = shape_.vocab, .seed = kVocabSeed}));
    }
    {
      Span span(ids.trie);
      trie_ = std::make_unique<tokenizer::TokenTrie>(*info_);
    }
    BuildRound(round);
  }

  virtual void ConfigureEngine(engine::EngineOptions* options) const = 0;
  // After each setup round, untimed: oracle grammars, service restart.
  virtual void PrepareDecode() {}
  // The requests of the round's `wave`-th decode wave; a pure function of
  // (seed, round, wave).
  virtual std::vector<RequestInput> MakeWave(int round, std::int64_t wave) = 0;
  virtual std::shared_ptr<baselines::ConstrainedDecoder> Admit(const RequestInput& in) = 0;
  virtual const DecoderSpans& Spans() const = 0;
  // Workload-specific checks for an output already equal to its target:
  // the failure reason, or "" when the output passes.
  virtual std::string Check(const RequestInput& in, const std::string& output) = 0;
  virtual void AddExtras(std::map<std::string, Metric>* extra) { (void)extra; }

 protected:
  virtual void ReleaseRound() = 0;
  virtual void BuildRound(int round) = 0;

  std::uint64_t WaveSeed(int round, std::int64_t wave) const {
    return Mix(Mix(o_.seed, static_cast<std::uint64_t>(round)), static_cast<std::uint64_t>(wave));
  }

  bool EarleyMemo(std::int32_t grammar, const grammar::BnfGrammar& bnf,
                  const std::string& text) {
    std::string key = std::to_string(grammar);
    key.push_back('\0');
    key += text;
    auto it = earley_memo_.find(key);
    if (it != earley_memo_.end()) return it->second;
    const bool ok = grammar::EarleyAccepts(bnf, text);
    earley_memo_.emplace(std::move(key), ok);
    return ok;
  }

  const RunOptions& o_;
  Shape shape_;
  std::shared_ptr<const tokenizer::TokenizerInfo> info_;
  std::unique_ptr<tokenizer::TokenTrie> trie_;
  CompileLog log_;
  std::unordered_map<std::string, bool> earley_memo_;
};

// --- cfg_ctx: the paper's three builtin CFGs at 128k ---------------------------

class CfgCtxWorkload final : public Workload {
 public:
  using Workload::Workload;

  void ConfigureEngine(engine::EngineOptions* options) const override {
    options->dense_logits = false;
  }

  void PrepareDecode() override {
    if (!bnf_.empty()) return;
    bnf_.push_back(grammar::LowerToBnf(grammar::BuiltinPythonDslGrammar()));
    bnf_.push_back(grammar::LowerToBnf(grammar::BuiltinXmlGrammar()));
    bnf_.push_back(grammar::LowerToBnf(grammar::BuiltinJsonGrammar()));
  }

  std::vector<RequestInput> MakeWave(int round, std::int64_t wave) override {
    const auto n = static_cast<int>(shape_.wave_requests);
    const int per = (n + 2) / 3;
    const std::uint64_t wave_seed = WaveSeed(round, wave);
    std::vector<std::vector<std::string>> docs = {
        datasets::GeneratePythonPrograms(per, Mix(wave_seed, 0)),
        datasets::GenerateXmlDocuments(per, Mix(wave_seed, 1)),
        datasets::GenerateJsonDocuments(per, Mix(wave_seed, 2)),
    };
    std::vector<RequestInput> inputs(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      RequestInput& in = inputs[static_cast<std::size_t>(i)];
      in.grammar = i % 3;
      in.target = docs[static_cast<std::size_t>(i % 3)][static_cast<std::size_t>(i / 3)];
      in.seed = Mix(wave_seed, 3 + static_cast<std::uint64_t>(i));
    }
    return inputs;
  }

  std::shared_ptr<baselines::ConstrainedDecoder> Admit(const RequestInput& in) override {
    runtime::Artifact artifact;
    {
      Span span(Ids().hit);
      artifact = service_->Submit(jobs_[static_cast<std::size_t>(in.grammar)]).Get();
    }
    return std::make_shared<baselines::XGrammarDecoder>(std::move(artifact));
  }

  const DecoderSpans& Spans() const override { return Ids().xgrammar; }

  std::string Check(const RequestInput& in, const std::string& output) override {
    if (in.grammar == 2 && !json::Parse(output).ok()) return "json::Parse rejects a JSON output";
    if (!EarleyMemo(in.grammar, bnf_[static_cast<std::size_t>(in.grammar)], output)) {
      return "Earley oracle rejects a cfg output";
    }
    return "";
  }

 protected:
  void ReleaseRound() override {
    service_.reset();
    jobs_.clear();
  }

  void BuildRound(int round) override {
    (void)round;
    service_ = std::make_unique<runtime::CompileService>(info_, ServiceOptions(o_, ""));
    jobs_.resize(3);
    jobs_[0].kind = runtime::GrammarKind::kEbnf;
    jobs_[0].source = grammar::PythonDslGrammarEbnf();
    jobs_[1].kind = runtime::GrammarKind::kEbnf;
    jobs_[1].source = grammar::XmlGrammarEbnf();
    jobs_[2].kind = runtime::GrammarKind::kBuiltinJson;
    for (const runtime::CompileJob& job : jobs_) CompileOne(service_.get(), job, o_, &log_);
  }

 private:
  std::unique_ptr<runtime::CompileService> service_;
  std::vector<runtime::CompileJob> jobs_;
  std::vector<grammar::BnfGrammar> bnf_;
};

// --- schema_fc: many small JSON-schema grammars, cold compiles + restart -------

class SchemaFcWorkload final : public Workload {
 public:
  SchemaFcWorkload(const RunOptions& o, Shape shape)
      : Workload(o, shape), disk_dir_(o.work_dir + "/artifacts") {}

  void ConfigureEngine(engine::EngineOptions* options) const override {
    options->dense_logits = true;
    options->temperature = 0.0f;
  }

  void PrepareDecode() override {
    // A fresh service on the same disk tier, as after a process restart: the
    // first request for each of this round's schemas loads its XGR3 artifact.
    service_.reset();
    service_ = std::make_unique<runtime::CompileService>(info_, ServiceOptions(o_, disk_dir_));
    for (const datasets::SchemaTask& task : tasks_) {
      bnf_.push_back(grammar::LowerToBnf(grammar::JsonSchemaToGrammar(task.schema)));
      targets_.push_back(task.canonical_answer.Dump());
    }
    loaded_.assign(tasks_.size(), false);
  }

  std::vector<RequestInput> MakeWave(int round, std::int64_t wave) override {
    const std::uint64_t wave_seed = WaveSeed(round, wave);
    std::vector<RequestInput> inputs(static_cast<std::size_t>(shape_.wave_requests));
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      RequestInput& in = inputs[i];
      in.seed = Mix(wave_seed, i);
      const std::size_t local = Mix(in.seed, 0x5c) % tasks_.size();
      in.grammar = first_index_ + static_cast<std::int32_t>(local);
      in.target = targets_[local];
    }
    return inputs;
  }

  std::shared_ptr<baselines::ConstrainedDecoder> Admit(const RequestInput& in) override {
    // Each request re-submits its schema text, as a client would.
    const auto local = static_cast<std::size_t>(in.grammar - first_index_);
    runtime::CompileJob job;
    job.kind = runtime::GrammarKind::kJsonSchema;
    job.source = schema_texts_[local];
    runtime::Artifact artifact;
    {
      Span span(loaded_[local] ? Ids().hit : Ids().load);
      artifact = service_->Submit(std::move(job)).Get();
    }
    loaded_[local] = true;
    return std::make_shared<baselines::XGrammarDecoder>(std::move(artifact));
  }

  const DecoderSpans& Spans() const override { return Ids().xgrammar; }

  std::string Check(const RequestInput& in, const std::string& output) override {
    if (!json::Parse(output).ok()) return "json::Parse rejects a schema output";
    if (!EarleyMemo(in.grammar, bnf_[static_cast<std::size_t>(in.grammar - first_index_)],
                    output)) {
      return "Earley oracle rejects a schema output";
    }
    return "";
  }

  void AddExtras(std::map<std::string, Metric>* extra) override {
    const runtime::CompileServiceStats stats = service_->Stats();
    (*extra)["runtime.hit_ratio"] = {
        stats.submitted > 0 ? static_cast<double>(stats.registry_hits) /
                                  static_cast<double>(stats.submitted)
                            : 0.0,
        "ratio", "", stats.submitted};
    std::int64_t bytes = 0;
    std::int64_t files = 0;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(disk_dir_, ec)) {
      if (entry.is_regular_file()) {
        bytes += static_cast<std::int64_t>(entry.file_size());
        ++files;
      }
    }
    (*extra)["artifact.bytes"] = {static_cast<double>(bytes), "bytes", "", files};
  }

 protected:
  void ReleaseRound() override {
    service_.reset();
    tasks_.clear();
    schema_texts_.clear();
    targets_.clear();
    bnf_.clear();
  }

  // Each round compiles its own distinct schemas cold, one at a time.
  void BuildRound(int round) override {
    first_index_ = next_index_;
    std::vector<datasets::SchemaTask> generated = datasets::GenerateSchemaTasks(
        shape_.grammars * 2, Mix(o_.seed, 0x5c4e3a00ULL + static_cast<std::uint64_t>(round)));
    for (datasets::SchemaTask& task : generated) {
      if (static_cast<int>(tasks_.size()) >= shape_.grammars) break;
      std::string text = task.schema.Dump();
      // Distinct across rounds too: a repeated schema would be a disk hit.
      if (!seen_.insert(text).second) continue;
      schema_texts_.push_back(std::move(text));
      tasks_.push_back(std::move(task));
    }
    next_index_ += static_cast<std::int32_t>(tasks_.size());
    service_ = std::make_unique<runtime::CompileService>(info_, ServiceOptions(o_, disk_dir_));
    for (const std::string& text : schema_texts_) {
      runtime::CompileJob job;
      job.kind = runtime::GrammarKind::kJsonSchema;
      job.source = text;
      CompileOne(service_.get(), job, o_, &log_);
    }
  }

 private:
  std::string disk_dir_;
  std::unique_ptr<runtime::CompileService> service_;
  std::set<std::string> seen_;
  std::int32_t first_index_ = 0;  // oracle memo ids stay unique across rounds
  std::int32_t next_index_ = 0;
  std::vector<datasets::SchemaTask> tasks_;
  std::vector<std::string> schema_texts_;
  std::vector<std::string> targets_;
  std::vector<grammar::BnfGrammar> bnf_;
  std::vector<bool> loaded_;
};

// --- agent_tags: tag-dispatched tool calls with speculation + jump-forward -----

const char* const kProseWords[] = {
    "the",     "agent",   "checks",  "a",        "file",    "and",     "then",
    "reports", "what",    "it",      "found",    "in",      "plain",   "words",
    "before",  "calling", "tool",    "with",     "careful", "inputs",  "result",
    "looks",   "fine",    "so",      "we",       "continue", "next",   "step",
    "data",    "shows",   "three",   "errors",   "fixed",   "quickly", "user",
    "asked",   "for",     "summary", "of",       "weather", "today",   "update",
    "records", "from",    "server",  "logs",     "again",   "later",   "this",
    "morning", "numbers", "like",    "42",       "or",      "1024",    "appear",
    "too",     "note:",   "done.",   "ok,",      "yes,",    "maybe",   "now",
};

std::string Prose(Rng* rng, int min_words, int max_words) {
  const auto count = static_cast<int>(rng->NextInRange(min_words, max_words));
  std::string text;
  for (int i = 0; i < count; ++i) {
    if (i > 0) text.push_back(rng->NextBool(0.1) ? '\n' : ' ');
    text += kProseWords[rng->NextBounded(std::size(kProseWords))];
  }
  return text;
}

class AgentTagsWorkload final : public Workload {
 public:
  AgentTagsWorkload(const RunOptions& o, Shape shape) : Workload(o, shape) {}

  static constexpr int kWindowSize = 4;
  static constexpr int kWindowStride = 2;
  static constexpr int kProsePool = 8;
  static constexpr std::uint64_t kToolCatalogSeed = 0xa6e7;

  void ConfigureEngine(engine::EngineOptions* options) const override {
    options->dense_logits = false;
    options->jump_forward = true;
    options->speculation.enabled = true;
    options->speculation.draft_tokens = 6;
    options->speculation.draft_noise = 0.1;
    options->speculation.seed = Mix(o_.seed, 0x5bec);
  }

  void PrepareDecode() override {
    if (!bnf_.empty()) return;
    for (const compose::TagDispatchConfig& config : configs_) {
      grammar::StructuralTagOptions options;
      options.allow_free_text = config.allow_free_text;
      options.max_invocations = config.max_invocations;
      options.require_invocation = config.require_invocation;
      bnf_.push_back(grammar::LowerToBnf(
          grammar::BuildStructuralTagGrammar(config.tags, config.triggers, options)));
    }
  }

  std::vector<RequestInput> MakeWave(int round, std::int64_t wave) override {
    const std::uint64_t wave_seed = WaveSeed(round, wave);
    std::vector<RequestInput> inputs(static_cast<std::size_t>(shape_.wave_requests));
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      RequestInput& in = inputs[i];
      in.seed = Mix(wave_seed, i);
      Rng rng(in.seed);
      in.grammar = static_cast<std::int32_t>(rng.NextBounded(windows_.size()));
      const std::vector<int>& window = windows_[static_cast<std::size_t>(in.grammar)];
      const int tool = window[rng.NextBounded(window.size())];
      const grammar::StructuralTag& tag = tags_[static_cast<std::size_t>(tool)];
      in.target = openers_[rng.NextBounded(openers_.size())] + " " + tag.begin +
                  bodies_[static_cast<std::size_t>(tool)] + tag.end + " " +
                  closers_[rng.NextBounded(closers_.size())];
    }
    return inputs;
  }

  std::shared_ptr<baselines::ConstrainedDecoder> Admit(const RequestInput& in) override {
    // The request names its tools; each resolves through the service (a
    // registry hit), then the window's prebuilt dispatch plan is reused.
    const auto window = static_cast<std::size_t>(in.grammar);
    for (int tool : windows_[window]) {
      Span span(Ids().hit);
      service_->Submit(tool_jobs_[static_cast<std::size_t>(tool)]).Get();
    }
    return std::make_shared<baselines::TagDispatchDecoder>(plans_[window]);
  }

  const DecoderSpans& Spans() const override { return Ids().tag_dispatch; }

  std::string Check(const RequestInput& in, const std::string& output) override {
    const std::string& begin_prefix = configs_[0].triggers[0];
    const std::size_t open = output.find(begin_prefix);
    const std::size_t body = open == std::string::npos ? open : output.find('>', open);
    const std::size_t close = output.find("</function>");
    if (body == std::string::npos || close == std::string::npos || close < body ||
        !json::Parse(std::string_view(output).substr(body + 1, close - body - 1)).ok()) {
      return "json::Parse rejects a tool-call body";
    }
    if (!EarleyMemo(in.grammar, bnf_[static_cast<std::size_t>(in.grammar)], output)) {
      return "Earley oracle rejects an agent transcript";
    }
    return "";
  }

 protected:
  void ReleaseRound() override {
    plans_.clear();
    service_.reset();
  }

  void BuildRound(int round) override {
    if (round == 0) {
      // Prose comes from small seeded sentence pools, so the Earley oracle
      // (memoized per distinct output) stays affordable at tens of
      // thousands of transcripts per run.
      Rng rng(Mix(o_.seed, 0x9405e));
      for (int i = 0; i < kProsePool; ++i) {
        openers_.push_back(Prose(&rng, 6, 24));
        closers_.push_back(Prose(&rng, 3, 12));
      }
      // The tool catalog is the deployment's configuration and does not
      // change with the seed; the transcripts that call it do.
      std::vector<datasets::SchemaTask> tasks =
          datasets::GenerateSchemaTasks(shape_.grammars, kToolCatalogSeed);
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        grammar::StructuralTag tag;
        tag.begin = "<function=tool_" + std::to_string(i) + ">";
        tag.schema_text = tasks[i].schema.Dump();
        tag.end = "</function>";
        runtime::CompileJob job;
        job.kind = runtime::GrammarKind::kTagSegment;
        job.source = grammar::EncodeTagSegmentSource(tag);
        tool_jobs_.push_back(std::move(job));
        bodies_.push_back(tasks[i].canonical_answer.Dump());
        tags_.push_back(std::move(tag));
      }
      // Overlapping windows {0..3}, {2..5}, {4..7}: neighbouring windows
      // share tool artifacts through the service.
      const int tools = static_cast<int>(tags_.size());
      const int size = std::min(kWindowSize, tools);
      for (int first = 0; first + size <= tools; first += kWindowStride) {
        std::vector<int> window(static_cast<std::size_t>(size));
        std::iota(window.begin(), window.end(), first);
        compose::TagDispatchConfig config;
        for (int tool : window) config.tags.push_back(tags_[static_cast<std::size_t>(tool)]);
        config.triggers = {"<function="};
        windows_.push_back(std::move(window));
        configs_.push_back(std::move(config));
      }
    }
    service_ = std::make_unique<runtime::CompileService>(info_, ServiceOptions(o_, ""));
    for (const runtime::CompileJob& job : tool_jobs_) CompileOne(service_.get(), job, o_, &log_);
    for (const compose::TagDispatchConfig& config : configs_) {
      Span span(Ids().plan);
      plans_.push_back(compose::TagDispatchPlan::Build(config, service_.get()));
    }
  }

 private:
  std::unique_ptr<runtime::CompileService> service_;
  std::vector<grammar::StructuralTag> tags_;
  std::vector<runtime::CompileJob> tool_jobs_;
  std::vector<std::string> bodies_;
  std::vector<std::string> openers_, closers_;
  std::vector<std::vector<int>> windows_;
  std::vector<compose::TagDispatchConfig> configs_;
  std::vector<std::shared_ptr<const compose::TagDispatchPlan>> plans_;
  std::vector<grammar::BnfGrammar> bnf_;
};

// --- Decode phase -----------------------------------------------------------------

void AddMaskStats(cache::MaskGenStats* into, const cache::MaskGenStats& stats) {
  into->masks_generated += stats.masks_generated;
  into->runtime_tokens_checked += stats.runtime_tokens_checked;
  into->ctx_tokens_pruned += stats.ctx_tokens_pruned;
  into->ctx_memo_hits += stats.ctx_memo_hits;
  into->ctx_memo_misses += stats.ctx_memo_misses;
}

struct WaveRun {
  double seconds = 0.0;
  std::uint64_t digest = kFnvOffset;
  engine::ContinuousResult result;
  cache::MaskGenStats mask;  // summed over the wave's fresh decoders
};

// What the traced waves add up to, for the per-layer metrics.
struct TracedTotals {
  std::int64_t tokens = 0;
  std::int64_t steps = 0;
  std::vector<double> steps_per_wave;
  cache::MaskGenStats mask;
  std::int64_t drafted = 0;
  std::int64_t committed = 0;
  std::int64_t dispatches = 0;

  void Add(const WaveRun& run) {
    tokens += run.result.total_tokens;
    steps += run.result.decode_steps;
    steps_per_wave.push_back(static_cast<double>(run.result.decode_steps));
    AddMaskStats(&mask, run.mask);
    dispatches += run.result.tag_dispatch.dispatches;
    for (const engine::ContinuousRequestResult& r : run.result.requests) {
      drafted += r.result.drafted_tokens;
      committed += r.result.draft_committed_tokens;
    }
  }
};

// `first_request` numbers the wave's requests in trace spans.
WaveRun RunWave(Workload* workload, engine::ServingEngine* engine,
                const std::vector<RequestInput>& inputs, std::int64_t first_request,
                bool traced, MaskSample* sample) {
  const SpanIdTable& ids = Ids();
  Tracer::Instance().SetEnabled(traced);
  std::vector<engine::ContinuousRequest> requests(inputs.size());
  WaveRun out;
  Timer timer;
  {
    Span wave(ids.wave);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const auto id = static_cast<std::int32_t>(first_request + static_cast<std::int64_t>(i));
      Span admit(ids.admit, id);
      std::shared_ptr<baselines::ConstrainedDecoder> decoder = workload->Admit(inputs[i]);
      if (traced) {
        decoder = std::make_shared<TracedDecoder>(std::move(decoder), workload->Spans(), id,
                                                  sample);
      }
      engine::EngineRequest& request = requests[i].request;
      request.decoder = std::move(decoder);
      request.target_text = inputs[i].target;
      request.seed = inputs[i].seed;
    }
    Span run(ids.run);
    out.result = engine->RunContinuous(requests, workload->shape().capacity);
  }
  out.seconds = timer.ElapsedSeconds();
  Tracer::Instance().SetEnabled(false);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const engine::RequestResult& r = out.result.requests[i].result;
    FnvAdd(&out.digest, r.token_ids.size());
    for (std::int32_t id : r.token_ids) FnvAdd(&out.digest, static_cast<std::uint32_t>(id));
    const cache::MaskGenStats* stats = requests[i].request.decoder->MaskStats();
    if (stats != nullptr) AddMaskStats(&out.mask, *stats);
  }
  return out;
}

void CheckWave(Workload* workload, const std::vector<RequestInput>& inputs,
               const WaveRun& run, WorkloadReport* report) {
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const engine::ContinuousRequestResult& record = run.result.requests[i];
    std::string why;
    if (record.status != StatusCode::kOk || record.grammar_failed) {
      why = std::string("request status ") + StatusCodeName(record.status);
    } else if (!record.result.finished_by_eos) {
      why = "truncated at the token cap";
    } else if (record.result.output_text != inputs[i].target) {
      why = "output differs from the mock's target";
    } else {
      why = workload->Check(inputs[i], record.result.output_text);
    }
    ++report->attempted;
    if (!why.empty()) {
      ++report->failed;
      if (report->failures.size() < kMaxFailureNotes) {
        report->failures.push_back(why + " (request seed " +
                                   std::to_string(inputs[i].seed) + ")");
      }
    }
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

Metric SpanPercentile(const std::map<std::string, SpanStats>& spans,
                      const std::string& name, double q, double scale,
                      const std::string& unit) {
  auto it = spans.find(name);
  if (it == spans.end()) return Metric{0.0, unit, "", 0};
  return Metric{Percentile(it->second.duration_us, q) * scale, unit, "",
                static_cast<std::int64_t>(it->second.duration_us.size())};
}

Metric Samples(const std::vector<double>& values, double q, const std::string& unit,
               const std::string& better = "") {
  return Metric{Percentile(values, q), unit, better,
                static_cast<std::int64_t>(values.size())};
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::unique_ptr<Workload> MakeWorkload(const RunOptions& o) {
  Shape shape;
  if (o.workload == "cfg_ctx") {
    shape = {128000, 64, 192, 7, 2, 64, 3};
    if (o.smoke) shape = {3000, 6, 9, 2, 2, 3, 3};
    return std::make_unique<CfgCtxWorkload>(o, shape);
  }
  if (o.workload == "schema_fc") {
    shape = {32000, 64, 128, 5, 2, 400, 30};
    if (o.smoke) shape = {3000, 6, 12, 2, 2, 3, 4};
    return std::make_unique<SchemaFcWorkload>(o, shape);
  }
  if (o.workload == "agent_tags") {
    shape = {128000, 32, 256, 6, 2, 400, 8};
    if (o.smoke) shape = {3000, 4, 8, 2, 2, 3, 4};
    return std::make_unique<AgentTagsWorkload>(o, shape);
  }
  return nullptr;
}

}  // namespace

WorkloadReport RunWorkload(const RunOptions& o) {
  WorkloadReport report;
  std::unique_ptr<Workload> workload = MakeWorkload(o);
  if (workload == nullptr) throw std::invalid_argument("unknown workload " + o.workload);
  const Shape& shape = workload->shape();
  Ids();  // register every span name up front

  engine::EngineOptions engine_options;
  engine_options.time_scale = 0.0;
  engine_options.schedule = engine::GrammarSchedule::kOverlap;
  engine_options.mask_threads = o.threads;
  engine_options.max_new_tokens = 2048;
  workload->ConfigureEngine(&engine_options);

  MaskSample sample(256, 7);
  std::vector<double> setup_s, plain_rate, traced_rate;
  TracedTotals totals;
  std::uint64_t digest = kFnvOffset;
  double spent = 0.0;
  std::string last_target;
  std::int64_t w = 0;
  std::unique_ptr<engine::MockLlm> llm;
  std::unique_ptr<engine::ServingEngine> engine;

  // One closed-loop wave (a twin pair in the traced run); `w` numbers the
  // run's waves, `k` the round's.
  auto run_wave = [&](int round, std::int64_t k) {
    const bool digest_wave = round == 0 && k < shape.digest_waves;
    std::vector<RequestInput> inputs = workload->MakeWave(round, k);
    // Longest targets first: the wave's drain tail (a batch running below
    // capacity) then stays short instead of hinging on one long request.
    std::stable_sort(inputs.begin(), inputs.end(),
                     [](const RequestInput& a, const RequestInput& b) {
                       return a.target.size() > b.target.size();
                     });
    last_target = inputs.front().target;
    const std::int64_t first_request = w * shape.wave_requests;
    if (!o.trace) {
      WaveRun run = RunWave(workload.get(), engine.get(), inputs, first_request, false,
                            nullptr);
      spent += run.seconds;
      plain_rate.push_back(static_cast<double>(run.result.total_tokens) / run.seconds);
      std::fprintf(stderr, "wave %lld tokens=%lld seconds=%.4f tok/s=%.1f\n",
                   static_cast<long long>(w), static_cast<long long>(run.result.total_tokens),
                   run.seconds, plain_rate.back());
      CheckWave(workload.get(), inputs, run, &report);
      if (digest_wave) {
        FnvAdd(&digest, run.digest);
        report.digest_requests += static_cast<std::int64_t>(inputs.size());
      }
      return;
    }
    // Traced run: the same wave twice on fresh decoders, once plain and once
    // through TracedDecoder, alternating which goes first.
    const bool traced_first = (w % 2) == 0;
    WaveRun first =
        RunWave(workload.get(), engine.get(), inputs, first_request, traced_first, &sample);
    WaveRun second =
        RunWave(workload.get(), engine.get(), inputs, first_request, !traced_first, &sample);
    WaveRun& traced = traced_first ? first : second;
    WaveRun& plain = traced_first ? second : first;
    spent += first.seconds + second.seconds;
    plain_rate.push_back(static_cast<double>(plain.result.total_tokens) / plain.seconds);
    traced_rate.push_back(static_cast<double>(traced.result.total_tokens) / traced.seconds);
    CheckWave(workload.get(), inputs, plain, &report);
    CheckWave(workload.get(), inputs, traced, &report);
    if (plain.digest != traced.digest) {
      ++report.failed;
      report.failures.push_back("traced outputs differ from untraced outputs in wave " +
                                std::to_string(w));
    }
    if (digest_wave) {
      FnvAdd(&digest, traced.digest);
      report.digest_requests += static_cast<std::int64_t>(inputs.size());
    }
    totals.Add(traced);
  };

  // Setup rounds alternate with slices of the decode budget, so host noise
  // lands on setup and decode samples alike; each round is a complete setup
  // and its products serve the decode slice that follows it.
  const int rounds = shape.setup_rounds;
  for (int round = 0; round < rounds; ++round) {
    engine.reset();
    llm.reset();
    workload->Release();
#if defined(__GLIBC__)
    // Hand freed rounds back to the OS, so peak RSS measures one round's
    // footprint rather than heap fragmentation left by the previous ones.
    malloc_trim(0);
#endif
    Tracer::Instance().SetEnabled(o.trace);
    Timer timer;
    workload->SetupRound(round);
    setup_s.push_back(timer.ElapsedSeconds());
    Tracer::Instance().SetEnabled(false);
    std::fprintf(stderr, "setup round %d %.4f s\n", round, setup_s.back());
    workload->PrepareDecode();
    llm = std::make_unique<engine::MockLlm>(workload->info(), engine::MockLlm::Options{});
    engine = std::make_unique<engine::ServingEngine>(engine_options, *llm);
    const double slice_end = o.seconds * (round + 1) / rounds;
    for (std::int64_t k = 0; w < shape.max_waves &&
                             ((round == 0 && k < shape.digest_waves) || spent < slice_end);
         ++k, ++w) {
      run_wave(round, k);
    }
  }
  report.digest = digest;

  const CompileLog& log = workload->compile_log();
  std::int64_t nodes = 0, bytes = 0, ctx_tokens = 0;
  std::vector<double> compile_ms;  // every cold CompileService::Compile
  for (const auto& [key, facts] : log.distinct) {
    nodes += facts.nodes;
    bytes += facts.bytes;
    ctx_tokens += facts.ctx_tokens;
    compile_ms.insert(compile_ms.end(), facts.service_ms.begin(), facts.service_ms.end());
  }
  const auto distinct = static_cast<std::int64_t>(log.distinct.size());

  report.config = {
      {"workload", o.workload},
      {"seed", std::to_string(o.seed)},
      {"vocab", std::to_string(shape.vocab)},
      {"capacity", std::to_string(shape.capacity)},
      {"requests_per_wave", std::to_string(shape.wave_requests)},
      {"waves", std::to_string(plain_rate.size())},
      {"setup_rounds", std::to_string(shape.setup_rounds)},
      {"compiles", std::to_string(compile_ms.size())},
      {"distinct_grammars", std::to_string(distinct)},
      {"mask_threads", std::to_string(o.threads)},
      {"compile_workers", "1"},
      {"cache_build_threads", std::to_string(o.threads)},
      {"logits", engine_options.dense_logits ? "dense" : "sparse"},
      {"speculation", engine_options.speculation.enabled ? "k=6,noise=0.1" : "off"},
      {"jump_forward", engine_options.jump_forward ? "on" : "off"},
  };

  if (!o.trace) {
    report.metrics["tok_per_s"] = Samples(plain_rate, 0.5, "tok/s", "higher");
    report.metrics["setup_s"] = Samples(setup_s, 0.5, "s", "lower");
    report.metrics["peak_rss_mb"] = {PeakRssMb(), "MB", "lower", 1};
    return report;
  }

  // --- Traced run: sampling-kernel micro on captured masks, then layers. ---
  {
    Tracer::Instance().SetEnabled(true);
    const SpanIdTable& ids = Ids();
    const auto vocab = static_cast<std::size_t>(workload->info()->VocabSize());
    engine::DenseSampler sampler;
    sampler.Prepare(vocab);
    std::vector<float> row(vocab);
    engine::SparseLogits scratch;
    engine::MockLlm::RequestScript script = llm->MakeScript(last_target, o.seed);
    Rng rng(o.seed);
    for (const DynamicBitset& mask : sample.Take()) {
      for (int rep = 0; rep < 4; ++rep) {
        {
          Span span(ids.mock_logits);
          llm->ComputeLogitsDense(&script, &scratch, row.data());
        }
        Span span(ids.sample);
        sampler.Sample(row.data(), vocab, &mask, 0.0f, &rng);
      }
    }
    Tracer::Instance().SetEnabled(false);
  }

  const std::map<std::string, SpanStats> spans = Tracer::Instance().Summarize();
  const std::string fill = workload->Spans().fill_layer + ".fill";
  const std::string accept = workload->Spans().walk_layer + ".accept";
  auto& m = report.metrics;
  m["tokenizer.vocab_ms"] = SpanPercentile(spans, "tokenizer.vocab", 0.5, 1e-3, "ms");
  m["tokenizer.trie_ms"] = SpanPercentile(spans, "tokenizer.trie", 0.5, 1e-3, "ms");
  m["grammar.convert_ms_p50"] = Samples(log.convert_ms, 0.5, "ms");
  m["pda.compile_ms_p50"] = Samples(log.pda_ms, 0.5, "ms");
  m["pda.compile_ms_p90"] = Samples(log.pda_ms, 0.9, "ms");
  m["pda.nodes"] = {static_cast<double>(nodes), "count", "", distinct};
  m["cache.build_ms_p50"] = Samples(log.build_ms, 0.5, "ms");
  m["cache.build_ms_p90"] = Samples(log.build_ms, 0.9, "ms");
  m["cache.bytes"] = {static_cast<double>(bytes), "bytes", "", distinct};
  m["cache.ctx_tokens"] = {static_cast<double>(ctx_tokens), "count", "", distinct};
  m["runtime.compile_ms_p50"] = Samples(compile_ms, 0.5, "ms");
  m["runtime.compile_ms_p90"] = Samples(compile_ms, 0.9, "ms");
  m["runtime.overhead_ms_p50"] = Samples(log.overhead_ms, 0.5, "ms");
  m["runtime.hit_us_p50"] = SpanPercentile(spans, "runtime.hit", 0.5, 1.0, "us");
  m["runtime.hit_us_p99"] = SpanPercentile(spans, "runtime.hit", 0.99, 1.0, "us");
  m["decode.fill_us_p50"] = SpanPercentile(spans, fill, 0.5, 1.0, "us");
  m["decode.fill_us_p99"] = SpanPercentile(spans, fill, 0.99, 1.0, "us");
  m["decode.accept_us_p50"] = SpanPercentile(spans, accept, 0.5, 1.0, "us");
  m["decode.accept_us_p99"] = SpanPercentile(spans, accept, 0.99, 1.0, "us");
  const std::int64_t fills = m["decode.fill_us_p50"].n;
  m["decode.tokens_per_fill"] = {Ratio(static_cast<double>(totals.tokens),
                                       static_cast<double>(fills)),
                                 "tok", "", fills};
  m["cache.fill_calls"] = {static_cast<double>(totals.mask.masks_generated), "count", "",
                           totals.mask.masks_generated};
  m["cache.ctx_checked_per_fill"] = {
      Ratio(static_cast<double>(totals.mask.runtime_tokens_checked),
            static_cast<double>(totals.mask.masks_generated)),
      "count", "", totals.mask.masks_generated};
  m["cache.ctx_pruned_ratio"] = {
      Ratio(static_cast<double>(totals.mask.ctx_tokens_pruned),
            static_cast<double>(totals.mask.runtime_tokens_checked)),
      "ratio", "", totals.mask.runtime_tokens_checked};
  m["cache.memo_hit_ratio"] = {
      Ratio(static_cast<double>(totals.mask.ctx_memo_hits),
            static_cast<double>(totals.mask.ctx_memo_hits + totals.mask.ctx_memo_misses)),
      "ratio", "", totals.mask.ctx_memo_hits + totals.mask.ctx_memo_misses};
  {
    auto it = spans.find("engine.run");
    std::vector<double> self_ms;
    if (it != spans.end()) {
      for (double us : it->second.self_us) self_ms.push_back(us / 1e3);
    }
    m["engine.self_ms"] = Samples(self_ms, 0.5, "ms");
  }
  m["engine.steps"] = Samples(totals.steps_per_wave, 0.5, "count");
  m["engine.batch_fill"] = {
      Ratio(static_cast<double>(fills),
            static_cast<double>(totals.steps) * static_cast<double>(shape.capacity)),
      "ratio", "", totals.steps};
  m["support.sample_us_p50"] = SpanPercentile(spans, "support.sample", 0.5, 1.0, "us");
  m["engine.mock_logits_us_p50"] =
      SpanPercentile(spans, "harness.mock_logits", 0.5, 1.0, "us");
  const double plain_median = Median(plain_rate);
  m["trace.overhead_pct"] = {
      Ratio(plain_median - Median(traced_rate), plain_median) * 100.0, "%", "",
      static_cast<std::int64_t>(traced_rate.size())};

  // Workload-specific layers: summary only.
  auto& x = report.extra;
  if (spans.count("compose.plan") != 0) {
    x["compose.plan_ms"] = SpanPercentile(spans, "compose.plan", 0.5, 1e-3, "ms");
  }
  for (const char* call : {"fill", "accept", "verify", "commit", "jf"}) {
    for (const char* layer : {"cache", "matcher", "compose"}) {
      const std::string name = std::string(layer) + "." + call;
      if (spans.count(name) == 0) continue;
      x[name + "_us_p50"] = SpanPercentile(spans, name, 0.5, 1.0, "us");
      x[name + "_us_p99"] = SpanPercentile(spans, name, 0.99, 1.0, "us");
    }
  }
  if (spans.count("artifact.load") != 0) {
    x["artifact.load_ms_p50"] = SpanPercentile(spans, "artifact.load", 0.5, 1e-3, "ms");
  }
  if (totals.drafted > 0) {
    x["compose.dispatches"] = {static_cast<double>(totals.dispatches), "count", "",
                               totals.dispatches};
    x["compose.draft_commit_ratio"] = {Ratio(static_cast<double>(totals.committed),
                                             static_cast<double>(totals.drafted)),
                                       "ratio", "", totals.drafted};
  }
  workload->AddExtras(&x);
  return report;
}

}  // namespace perfbench
