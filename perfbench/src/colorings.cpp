// The two coloring workloads: Linial on a mapped out-of-cache corpus and
// the full (Delta+1) pipeline on an in-RAM graph.
//
// End-to-end runs time whole colorings, serial and multi-lane in turn,
// until the budget is spent (at least three of each). Every coloring is
// validated, and its coloring digest, trace digest and RunMetrics must
// equal the serial reference's. Per-layer runs time the public entry
// points of each layer on the workload's own graph and engine, and roll
// the transcripts up per trace mark, sub-runs included.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <random>

#include <unistd.h>

#include "ldc/coloring/instance_gen.hpp"
#include "ldc/coloring/validate.hpp"
#include "ldc/d1lc/congest_colorer.hpp"
#include "ldc/dist/coordinator.hpp"
#include "ldc/graph/generators.hpp"
#include "ldc/linial/cover_free.hpp"
#include "ldc/linial/linial.hpp"
#include "ldc/reduction/color_space.hpp"
#include "ldc/runtime/network.hpp"
#include "ldc/service/algorithms.hpp"
#include "ldc/storage/mapped_graph.hpp"
#include "ldc/storage/stream_gen.hpp"
#include "ldc/support/packed_palette.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace ldc;
using Clock = std::chrono::steady_clock;
using Scope = SpanRecorder::Scope;

/// Timed colorings of each engine in one end-to-end run, at least.
constexpr std::size_t kMinRuns = 3;
/// Set-up (input built, then one warm-up coloring) is repeated this
/// often; setup_s is the median.
constexpr int kSetupReps = 3;

double secs_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Median wall time of `reps` calls of fn.
template <typename Fn>
double median_secs(int reps, Fn&& fn) {
  std::vector<double> xs;
  for (int i = 0; i < reps; ++i) {
    const auto t = Clock::now();
    fn();
    xs.push_back(secs_since(t));
  }
  return median(xs);
}

struct EngineSel {
  std::string name;
  Network::Engine kind = Network::Engine::kSerial;
  std::size_t lanes = 1;
  DistBackend* dist = nullptr;
};

void select(Network& net, const EngineSel& e) {
  if (e.dist != nullptr) {
    net.attach_dist(e.dist);
  } else if (e.kind != Network::Engine::kSerial) {
    net.set_engine(e.kind, e.lanes);
  }
}

/// What the per-layer colorings record beyond the Network's own Trace:
/// the spans, and the transcripts of sub-runs on networks the algorithm
/// makes itself (Theorem 1.3's per-class OLDC solves), which the outer
/// Trace sees only as one absorbed row per sub-run.
struct SubRuns {
  SpanRecorder* spans = nullptr;
  std::vector<Trace::Round> rows;
};

/// What a coloring workload colors, and how it checks the result.
struct Subject {
  const Graph* g = nullptr;
  /// Colors on `net`; with `sub` set, through the instrumented path.
  std::function<Coloring(Network&, SubRuns*)> color;
  std::function<bool(const Coloring&)> valid;
};

struct Run {
  double secs = 0;
  bool valid = false;
  std::uint64_t color_digest = 0;
  RunMetrics metrics;
  Trace trace;
  ShardTraffic traffic;
};

/// One timed coloring; engine set-up (pools, partitions, worker
/// processes) happens before the clock starts, under its own span.
Run color_once(const Subject& s, const EngineSel& e, SpanRecorder& spans,
               SubRuns* sub = nullptr) {
  Run r;
  Network net(*s.g);
  {
    Scope sc(spans, "engine.select " + e.name);
    select(net, e);
  }
  net.attach_trace(&r.trace);
  Coloring phi;
  {
    Scope sc(spans, "coloring");
    const auto t = Clock::now();
    phi = s.color(net, sub);
    r.secs = secs_since(t);
  }
  r.metrics = net.metrics();
  r.traffic = net.cross_shard_traffic();
  r.valid = s.valid(phi);
  r.color_digest = service::coloring_digest(phi);
  return r;
}

/// Slices for `rows` laid end to end from the start of the open span
/// `parent`, one per run of equal marks, clipped at now.
void lay_slices(const std::vector<Trace::Round>& rows, SpanRecorder& spans,
                std::uint64_t parent) {
  if (!spans.enabled()) return;
  const std::uint64_t end = spans.now_ns();
  std::uint64_t cursor = spans.spans().at(parent - 1).start_ns;
  for (std::size_t i = 0; i < rows.size();) {
    const std::string& mark = rows[i].mark;
    const std::uint64_t start = std::min(cursor, end);
    for (; i < rows.size() && rows[i].mark == mark; ++i) {
      cursor += rows[i].wall_ns;
    }
    spans.add_closed("mark " + (mark.empty() ? "unmarked" : mark), parent,
                     start, std::min(cursor, end));
  }
}

/// d1lc::color with its default options, spelled out as the two public
/// calls it makes so that each Theorem 1.1 solve can be traced: the solve
/// runs under its own span, with a Trace attached to the network it is
/// given. Its coloring, transcript and metrics are still checked against
/// the serial reference, which runs d1lc::color itself.
Coloring traced_pipeline(Network& net, const LdcInstance& inst,
                         SubRuns& sub) {
  const d1lc::PipelineOptions opt;
  SpanRecorder& spans = *sub.spans;
  net.mark("pipeline/linial");
  linial::Result lin;
  {
    Scope sc(spans, "stage pipeline/linial");
    lin = linial::color(net);
  }
  const arb::OldcSolver two_phase = arb::two_phase_solver(opt.params);
  const arb::OldcSolver base = [&](Network& sub_net, const LdcInstance& i,
                                   const Orientation& o, const Coloring& c,
                                   std::uint64_t m) {
    Scope sc(spans, "two-phase solve");
    Trace t;
    struct Detach {
      Network& n;
      ~Detach() { n.attach_trace(nullptr); }
    } detach{sub_net};
    sub_net.attach_trace(&t);
    const oldc::OldcResult res = two_phase(sub_net, i, o, c, m);
    lay_slices(t.rounds(), spans, sc.id());
    sub.rows.insert(sub.rows.end(), t.rounds().begin(), t.rounds().end());
    return res;
  };
  arb::OldcSolver solver = base;
  if (opt.reduction_levels > 0) {
    const std::uint32_t r = opt.reduction_levels;
    solver = [&base, r](Network& sub_net, const LdcInstance& sub_inst,
                        const Orientation& orientation,
                        const Coloring& initial, std::uint64_t m) {
      reduction::Options ropt;
      ropt.p = reduction::subspace_count_for_depth(sub_inst.color_space, r);
      const auto out = reduction::reduce_and_solve(
          sub_net, sub_inst, orientation, initial, m, ropt, base);
      oldc::OldcResult o;
      o.phi = out.phi;
      o.stats = out.stats;
      o.valid = true;
      return o;
    };
  }
  net.mark("pipeline/theorem-1.3");
  Scope sc(spans, "stage pipeline/theorem-1.3");
  return arb::solve_list_arbdefective(net, inst, lin.phi, lin.palette,
                                      solver, opt.t13)
      .out.colors;
}

/// Checks a run against the serial reference: valid, same coloring,
/// same transcript digest, same communication metrics.
void check_run(WorkloadResult& out, const Run& r, const Run& ref,
               const std::string& label) {
  const bool same = r.color_digest == ref.color_digest &&
                    r.trace.digest() == ref.trace.digest() &&
                    r.metrics.same_communication(ref.metrics);
  std::printf("%-22s %9.4f s  rounds %llu  valid %d  digest %016llx  %s\n",
              label.c_str(), r.secs,
              static_cast<unsigned long long>(r.metrics.rounds),
              static_cast<int>(r.valid),
              static_cast<unsigned long long>(r.trace.digest()),
              same ? "matches serial" : "DIFFERS FROM SERIAL");
  out.check(r.valid && same, label + " coloring");
}

/// End-to-end measurement shared by both coloring workloads. `warm` is
/// the multi-lane warm-up run made during set-up. The engines alternate,
/// serial first, so a drift of the host's speed reaches both alike.
void measure(const WorkloadArgs& a, const Subject& s, SpanRecorder& spans,
             const Run& warm, double setup_s, WorkloadResult& out) {
  const EngineSel serial{"serial"};
  const EngineSel multi{"parallel/" + std::to_string(a.lanes),
                        Network::Engine::kParallel, a.lanes};
  std::vector<double> par, ser;
  Run ref;
  double predicted[2] = {warm.secs, warm.secs};  // [serial, multi]
  const auto t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool is_serial = i % 2 == 0;
    // Three of each engine always run; after that, stop before a run
    // that would overrun the budget.
    if (ser.size() >= kMinRuns && par.size() >= kMinRuns &&
        secs_since(t0) + predicted[is_serial ? 0 : 1] > a.seconds) {
      break;
    }
    const EngineSel& e = is_serial ? serial : multi;
    Scope sc(spans, "color." + e.name);
    Run r = color_once(s, e, spans);
    predicted[is_serial ? 0 : 1] = r.secs;
    if (i == 0) {
      ref = r;
      check_run(out, warm, ref, "warm-up " + multi.name);
    }
    check_run(out, r, ref, e.name);
    (is_serial ? ser : par).push_back(r.secs);
  }
  std::printf("timed colorings: %zu %s, %zu serial\n", par.size(),
              multi.name.c_str(), ser.size());
  const double color_s = median(par);
  out.set("setup_s", setup_s);
  out.set("color_s", color_s);
  out.set("color_serial_s", median(ser));
  out.set("rss_mib", peak_rss_mib(::getpid()));
  out.set("jobs_per_s_core", 1.0 / (color_s * static_cast<double>(a.lanes)));
}

/// Per-mark rollups (seconds, rounds, bits) of a traced coloring, from
/// the outer transcript and the sub-runs' own rows (rows under no listed
/// mark are "unlisted"), and the coloring's time outside every round of
/// the outer transcript, whose rows include the sub-runs' time.
void rollup_marks(const Run& run, const std::vector<Trace::Round>& sub,
                  WorkloadResult& out) {
  std::map<std::string, std::array<double, 3>> acc;
  auto add = [&](const Trace::Round& row) {
    const bool listed = std::find(std::begin(kMarks), std::end(kMarks),
                                  row.mark) != std::end(kMarks);
    auto& v = acc[listed ? row.mark : "unlisted"];
    v[0] += static_cast<double>(row.wall_ns) / 1e9;
    v[1] += 1;
    v[2] += static_cast<double>(row.bits);
  };
  std::uint64_t in_rounds_ns = 0;
  for (const auto& row : run.trace.rounds()) {
    add(row);
    in_rounds_ns += row.wall_ns;
  }
  for (const auto& row : sub) add(row);
  for (const auto& [mark, v] : acc) {
    const std::string base = mark_metric(mark);
    out.set(base + "_s", v[0]);
    out.set(base + "_rounds", v[1]);
    out.set(base + "_bits", v[2]);
  }
  out.set("mark.between-rounds_s",
          std::max(0.0, run.secs - static_cast<double>(in_rounds_ns) / 1e9));
}

/// The per-layer run shared by both coloring workloads: the serial
/// reference, an untraced and a traced multi-lane coloring, and the
/// runtime / linial / support probes on the workload's graph.
Run per_layer_common(const WorkloadArgs& a, const Subject& s,
                     SpanRecorder& spans, WorkloadResult& out) {
  const Graph& g = *s.g;
  const EngineSel multi{"parallel/" + std::to_string(a.lanes),
                        Network::Engine::kParallel, a.lanes};
  Run ref;
  {
    Scope sc(spans, "color.serial");
    ref = color_once(s, EngineSel{"serial"}, spans);
  }
  check_run(out, ref, ref, "serial");
  // Untraced and traced multi-lane colorings, three each, in alternating
  // order so neither always runs second. Traced ones take the
  // instrumented path with spans on; the first is rolled up per mark.
  SpanRecorder off(false);
  std::vector<double> untraced_s, traced_s;
  Run traced;
  SubRuns traced_sub;
  for (const bool with_spans : {false, true, true, false, false, true}) {
    if (!with_spans) {
      const Run u = color_once(s, multi, off);
      check_run(out, u, ref, multi.name + " untraced");
      untraced_s.push_back(u.secs);
      continue;
    }
    Scope sc(spans, "color." + multi.name + " traced");
    SubRuns sub{&spans, {}};
    Run t = color_once(s, multi, spans, &sub);
    check_run(out, t, ref, multi.name + " traced");
    traced_s.push_back(t.secs);
    if (traced_s.size() == 1) {
      traced = std::move(t);
      traced_sub = std::move(sub);
    }
  }
  rollup_marks(traced, traced_sub.rows, out);
  out.set("trace.overhead", median(traced_s) / median(untraced_s));
  out.set("runtime.rounds", static_cast<double>(ref.metrics.rounds));
  out.set("runtime.msgs", static_cast<double>(ref.metrics.messages));
  out.set("runtime.bits", static_cast<double>(ref.metrics.total_bits));

  // Runtime: one fused-word round and one no-op node-program pass on the
  // workload's graph and engine.
  Network net(g);
  select(net, multi);
  {
    // The round alone, then the round plus every receiver reading its
    // inbox (the dense word plane defers per-edge work to the read).
    Scope sc(spans, "runtime.exchange_broadcast_word");
    std::vector<std::uint64_t> words(g.n()), sink(g.n());
    for (NodeId v = 0; v < g.n(); ++v) words[v] = g.id(v);
    out.set("runtime.word_round_s", median_secs(3, [&] {
              (void)net.exchange_broadcast_word(words, g.max_id());
            }));
    const double with_reads = median_secs(3, [&] {
      const WordMail in = net.exchange_broadcast_word(words, g.max_id());
      net.run_node_programs([&](NodeId v) {
        std::uint64_t acc = 0;
        for (const auto [u, w] : in[v]) acc += w ^ u;
        sink[v] = acc;
      });
    });
    out.set("runtime.ns_per_delivery",
            with_reads * 1e9 / (2.0 * static_cast<double>(g.m())));
  }
  {
    Scope sc(spans, "runtime.run_node_programs");
    std::vector<std::uint32_t> sink(g.n());
    out.set("runtime.nodeprog_s", median_secs(5, [&] {
              net.run_node_programs([&](NodeId v) { sink[v] = v; });
            }));
  }
  // Linial: one reduction step from the identifier coloring.
  {
    Scope sc(spans, "linial.reduce_once");
    Network rnet(g);
    select(rnet, multi);
    Coloring phi(g.n());
    for (NodeId v = 0; v < g.n(); ++v) phi[v] = static_cast<Color>(g.id(v));
    const auto t = Clock::now();
    const std::uint64_t palette =
        linial::reduce_once(rnet, phi, g.max_id() + 1, 0, {});
    out.set("linial.reduce_s", secs_since(t));
    out.check(palette > 0 && validate_proper(g, phi).ok, "reduce_once");
  }
  // Support: Reed-Solomon evaluation with the first Linial round's
  // family for this graph.
  {
    Scope sc(spans, "support.RsEvalTable");
    const linial::RsFamily fam =
        linial::choose_family(g.max_id() + 1, g.max_degree(), 0);
    const linial::RsEvalTable tab(fam);
    std::mt19937_64 rng(a.seed);
    const std::size_t k = fam.deg + 1;
    std::vector<std::uint64_t> digits(1024 * k);
    for (std::size_t i = 0; i < 1024; ++i) {
      tab.digits_of(rng() % fam.input_space, &digits[i * k]);
    }
    std::uint64_t sink = 0, evals = 0;
    const auto t = Clock::now();
    while (evals < 4000000) {
      for (std::size_t i = 0; i < 1024; ++i) {
        for (std::uint64_t x = 0; x < std::min<std::uint64_t>(fam.q, 64);
             ++x) {
          sink += tab.eval(&digits[i * k], x);
          ++evals;
        }
      }
    }
    out.set("support.rs_eval_ns",
            secs_since(t) * 1e9 / static_cast<double>(evals));
    out.check(sink != 0, "RsEvalTable probe");
  }
  return ref;
}

}  // namespace

// ---- linial-reg16 -------------------------------------------------------

void run_linial(const WorkloadArgs& a, SpanRecorder& spans,
                WorkloadResult& out) {
  // 2*10^6 vertices of a 16-regular graph: ~137 MiB of CSR, past the L3
  // cache, so both rounds stream the corpus from memory; small enough
  // that a run holds five colorings of each engine, as the serial ones
  // are the noisiest timings of the benchmark.
  constexpr std::uint64_t kN = 2000000;
  const auto spec = storage::gen::stream_random_regular(kN, 16, a.seed);
  const std::string path = a.work_dir + "/linial-reg16.ldcg";
  const EngineSel multi{"parallel/" + std::to_string(a.lanes),
                        Network::Engine::kParallel, a.lanes};

  std::shared_ptr<const storage::MappedGraph> mapped;
  Graph g;
  Subject s;
  s.g = &g;
  s.color = [](Network& net, SubRuns* sub) {
    if (sub == nullptr) return linial::color(net).phi;
    Scope sc(*sub->spans, "linial::color");
    Coloring phi = linial::color(net).phi;
    lay_slices(net.trace()->rounds(), *sub->spans, sc.id());
    return phi;
  };
  s.valid = [&](const Coloring& phi) { return validate_proper(g, phi).ok; };

  std::vector<double> write_s, open_s, setup_reps;
  Run warm;
  {
    Scope sc(spans, "setup");
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const auto t0 = Clock::now();
      {
        Scope w(spans, "storage.write_corpus");
        const auto t = Clock::now();
        storage::gen::write_corpus(spec, path);
        write_s.push_back(secs_since(t));
      }
      {
        Scope o(spans, "storage.MappedGraph.open");
        const auto t = Clock::now();
        mapped = storage::MappedGraph::open(path);
        g = mapped->graph();
        open_s.push_back(secs_since(t));
      }
      Scope w(spans, "setup.warm-up");
      warm = color_once(s, multi, spans);
      setup_reps.push_back(secs_since(t0));
    }
  }
  const double setup_s = median(setup_reps);
  std::printf("corpus: n %llu, %llu adjacency entries, %.1f MiB, content "
              "digest %016llx\n",
              static_cast<unsigned long long>(g.n()),
              static_cast<unsigned long long>(2 * g.m()),
              static_cast<double>(mapped->file_bytes()) / (1 << 20),
              static_cast<unsigned long long>(mapped->meta().content_digest));

  if (!a.trace) {
    measure(a, s, spans, warm, setup_s, out);
  } else {
    out.set("storage.write_s", median(write_s));
    out.set("storage.open_s", median(open_s));
    const Run ref = per_layer_common(a, s, spans, out);
    // Engine comparison (observational): the sharded engine and the
    // multi-process engine on the same corpus, both digest-checked.
    {
      Scope sc(spans, "color.sharded");
      const Run r = color_once(
          s, EngineSel{"sharded/" + std::to_string(a.lanes),
                       Network::Engine::kSharded, a.lanes},
          spans);
      check_run(out, r, ref, "sharded/" + std::to_string(a.lanes));
      out.set("engine.sharded_color_s", r.secs);
      out.set("engine.x_shard_msgs", static_cast<double>(r.traffic.messages));
    }
    {
      Scope sc(spans, "color.dist");
      dist::CoordinatorOptions opt;
      opt.workers = a.lanes;
      opt.shard_binary = a.bin_dir + "/ldc_shard";
      std::optional<dist::Coordinator> coord;
      {
        Scope st(spans, "dist.Coordinator.spawn");
        coord.emplace(path, opt);
      }
      Subject ds = s;
      ds.g = &coord->corpus_graph();
      const Run r = color_once(
          ds, EngineSel{"dist/" + std::to_string(a.lanes),
                        Network::Engine::kDist, a.lanes, &*coord},
          spans);
      check_run(out, r, ref, "dist/" + std::to_string(a.lanes));
      const auto wire = coord->wire_stats();
      out.set("engine.dist_color_s", r.secs);
      out.set("dist.wire_mib",
              static_cast<double>(wire.bytes_sent + wire.bytes_received) /
                  (1 << 20));
      out.set("dist.frames",
              static_cast<double>(wire.frames_sent + wire.frames_received));
    }
  }
  g = Graph();
  mapped.reset();
  std::filesystem::remove(path);
}

// ---- pipeline-reg64 -----------------------------------------------------

void run_pipeline(const WorkloadArgs& a, SpanRecorder& spans,
                  WorkloadResult& out) {
  // 5*10^3 vertices of degree 64 with scrambled 24-bit identifiers: ~600
  // rounds of the Theorem 1.4 pipeline whose working set fits in cache,
  // short enough that a run holds a dozen colorings of each engine.
  constexpr std::uint32_t kN = 5000, kDelta = 64;
  const EngineSel multi{"parallel/" + std::to_string(a.lanes),
                        Network::Engine::kParallel, a.lanes};
  Graph g;
  LdcInstance inst;
  Subject s;
  s.g = &g;
  s.color = [&](Network& net, SubRuns* sub) {
    return sub != nullptr ? traced_pipeline(net, inst, *sub)
                          : d1lc::color(net, inst).phi;
  };
  s.valid = [&](const Coloring& phi) { return validate_ldc(inst, phi).ok; };

  std::vector<double> gen_s, setup_reps;
  Run warm;
  {
    Scope sc(spans, "setup");
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const auto t0 = Clock::now();
      {
        Scope gs(spans, "graph.generate");
        const auto t = Clock::now();
        g = gen::random_regular(kN, kDelta, a.seed);
        gen::scramble_ids(g, std::uint64_t{1} << 24, a.seed + 101);
        inst = delta_plus_one_instance(g);
        gen_s.push_back(secs_since(t));
      }
      Scope w(spans, "setup.warm-up");
      warm = color_once(s, multi, spans);
      setup_reps.push_back(secs_since(t0));
    }
  }
  const double setup_s = median(setup_reps);

  if (!a.trace) {
    measure(a, s, spans, warm, setup_s, out);
    return;
  }
  out.set("graph.gen_s", median(gen_s));
  const Run ref = per_layer_common(a, s, spans, out);

  // Runtime: Message-plane rounds carrying the pipeline's mean message.
  Network net(g);
  select(net, multi);
  const std::uint64_t bits = std::max<std::uint64_t>(
      1, ref.metrics.total_bits / std::max<std::uint64_t>(
                                      1, ref.metrics.messages));
  BitWriter w;
  for (std::uint64_t left = bits; left > 0;) {
    const int chunk = static_cast<int>(std::min<std::uint64_t>(left, 64));
    w.write(0x5a5a5a5a5a5a5a5aull, chunk);
    left -= static_cast<std::uint64_t>(chunk);
  }
  const Message msg = Message::from(w);
  {
    Scope sc(spans, "runtime.exchange_broadcast");
    const std::vector<Message> msgs(g.n(), msg);
    out.set("runtime.msg_round_s", median_secs(5, [&] {
              (void)net.exchange_broadcast(msgs);
            }));
  }
  {
    Scope sc(spans, "runtime.exchange");
    std::vector<Network::Outbox> outboxes(g.n());
    for (NodeId u = 0; u < g.n(); ++u) {
      for (NodeId v : g.neighbors(u)) outboxes[u].emplace_back(v, msg);
    }
    out.set("runtime.exchange_round_s", median_secs(5, [&] {
              (void)net.exchange(outboxes);
            }));
  }
  // Support: the word-parallel first-absent scan over (Delta+1)-sized
  // candidate lists against Delta-sized conflict sets.
  {
    Scope sc(spans, "support.PackedPalette.first_absent");
    constexpr std::uint64_t kUniverse = 4096;
    std::mt19937_64 rng(a.seed);
    std::vector<PackedPalette> conflicts(256, PackedPalette(kUniverse));
    std::vector<PackedPalette> lists(256, PackedPalette(kUniverse));
    for (std::size_t i = 0; i < 256; ++i) {
      for (std::uint32_t k = 0; k < kDelta; ++k) {
        conflicts[i].insert(rng() % kUniverse);
      }
      std::vector<std::uint64_t> list;
      for (std::uint32_t k = 0; k <= kDelta; ++k) {
        list.push_back(rng() % kUniverse);
      }
      std::sort(list.begin(), list.end());
      for (const std::uint64_t c : list) lists[i].insert(c);
    }
    std::uint64_t sink = 0, calls = 0;
    const auto t = Clock::now();
    while (calls < 2000000) {
      for (std::size_t i = 0; i < 256; ++i) {
        sink += conflicts[i].first_absent(lists[(i + calls) % 256]);
        ++calls;
      }
    }
    out.set("support.first_absent_ns",
            secs_since(t) * 1e9 / static_cast<double>(calls));
    out.check(sink != 0, "PackedPalette probe");
  }
}

}  // namespace perfbench
