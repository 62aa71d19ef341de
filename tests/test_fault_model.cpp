// First-class fault-model taxonomy (stuck-at / transition / transient-SEU /
// intermittent): naming round-trips, per-model activation streams, the
// unified-universe transition grading pinned flag-for-flag against the
// legacy simulate_transition oracle across engines x lanes x threads, the
// windowed-model determinism matrix, the netlist release API, the
// FaultUniverse store-codec version bump, and per-model session caching.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "core/evaluate.hpp"
#include "fault/sim.hpp"
#include "fault/sim_parallel.hpp"
#include "fault/transition.hpp"
#include "netlist/compiled.hpp"
#include "netlist/eval.hpp"
#include "rtlgen/alu.hpp"
#include "rtlgen/comparator.hpp"
#include "rtlgen/control.hpp"
#include "rtlgen/divider.hpp"
#include "rtlgen/multiplier.hpp"
#include "rtlgen/pipeline.hpp"
#include "rtlgen/shifter.hpp"
#include "seq_oracle.hpp"
#include "store/artifact_store.hpp"

namespace fs = std::filesystem;

namespace sbst::fault {
namespace {

using netlist::Netlist;

constexpr FaultModel kAllModels[] = {
    FaultModel::kStuckAt, FaultModel::kTransition, FaultModel::kTransientSEU,
    FaultModel::kIntermittent};

PatternSet random_patterns(Rng& rng, const Netlist& nl, std::size_t count) {
  PatternSet ps(nl);
  for (std::size_t i = 0; i < count; ++i) ps.add_random(rng);
  return ps;
}

SeqStimulus random_stimulus(Rng& rng, const Netlist& nl, std::size_t cycles) {
  SeqStimulus st(nl);
  for (std::size_t c = 0; c < cycles; ++c) {
    std::vector<PortValue> values;
    for (const netlist::Port& p : nl.input_ports()) {
      values.emplace_back(p.name, rng.next64());
    }
    st.add_cycle(values, rng.chance(0.7));
  }
  return st;
}

void expect_same_flags(const CoverageResult& oracle,
                       const CoverageResult& got, const Netlist& nl,
                       const std::vector<Fault>& faults, const char* label) {
  ASSERT_EQ(oracle.detected_flags.size(), got.detected_flags.size()) << label;
  for (std::size_t i = 0; i < oracle.detected_flags.size(); ++i) {
    ASSERT_EQ(oracle.detected_flags[i], got.detected_flags[i])
        << label << ": fault " << i << " (" << fault_name(nl, faults[i])
        << ")";
  }
}

// ---- naming ----------------------------------------------------------------

TEST(FaultModelNaming, NameParsesBackForEveryModelAndPolarity) {
  const Netlist nl = rtlgen::build_shifter({.width = 8});
  const FaultUniverse stuck(nl);
  // Take a spread of representative sites (stems and pins) and rename them
  // under every model; the round-trip must recover site, polarity, AND model.
  const std::vector<Fault>& reps = stuck.collapsed();
  ASSERT_GE(reps.size(), 8u);
  for (std::size_t i = 0; i < reps.size(); i += reps.size() / 8) {
    for (const FaultModel model : kAllModels) {
      Fault f = reps[i];
      f.model = model;
      const std::string name = fault_name(nl, f);
      Fault back;
      ASSERT_TRUE(parse_fault_name(nl, name, back)) << name;
      EXPECT_EQ(back, f) << name;
    }
  }
  // The four suffix families are distinct, so the same site renders four
  // different names.
  Fault f = reps[0];
  std::vector<std::string> names;
  for (const FaultModel model : kAllModels) {
    f.model = model;
    names.push_back(fault_name(nl, f));
  }
  for (std::size_t a = 0; a < names.size(); ++a) {
    for (std::size_t b = a + 1; b < names.size(); ++b) {
      EXPECT_NE(names[a], names[b]);
    }
  }
}

TEST(FaultModelNaming, MalformedNamesAreRejected) {
  const Netlist nl = rtlgen::build_comparator();
  Fault out;
  EXPECT_FALSE(parse_fault_name(nl, "", out));
  EXPECT_FALSE(parse_fault_name(nl, "g0(And).out/zz1", out));
  EXPECT_FALSE(parse_fault_name(nl, "g999999(And).out/sa1", out));
  // A real fault name with the wrong gate kind must fail the kind check.
  const FaultUniverse u(nl);
  const std::string good = fault_name(nl, u.collapsed()[0]);
  EXPECT_TRUE(parse_fault_name(nl, good, out));
}

TEST(FaultModelNaming, TransitionNamesDelegateToTheUnifiedNamer) {
  const Netlist nl = rtlgen::build_comparator();
  const std::vector<TransitionFault> tf = enumerate_transition_faults(nl);
  const FaultUniverse u(nl, FaultModel::kTransition);
  ASSERT_EQ(tf.size(), u.size());
  for (std::size_t i = 0; i < tf.size(); ++i) {
    EXPECT_EQ(transition_fault_name(nl, tf[i]),
              fault_name(nl, u.collapsed()[i]));
  }
}

TEST(FaultModelNaming, ModelNamesRoundTripWithAliases) {
  for (const FaultModel model : kAllModels) {
    FaultModel back;
    ASSERT_TRUE(parse_fault_model(fault_model_name(model), back));
    EXPECT_EQ(back, model);
  }
  FaultModel m;
  EXPECT_TRUE(parse_fault_model("sa", m));
  EXPECT_EQ(m, FaultModel::kStuckAt);
  EXPECT_TRUE(parse_fault_model("seu", m));
  EXPECT_EQ(m, FaultModel::kTransientSEU);
  EXPECT_FALSE(parse_fault_model("bogus", m));
}

// ---- activation streams ----------------------------------------------------

TEST(ActivationStreams, WordFormMatchesScalarForm) {
  const Netlist nl = rtlgen::build_alu({.width = 4});
  const FaultUniverse u(nl);
  for (std::size_t i = 0; i < 4; ++i) {
    Fault f = u.collapsed()[i * (u.size() / 4)];
    for (const FaultModel model : kAllModels) {
      f.model = model;
      const std::uint64_t key = fault_stream_key(f);
      for (std::uint64_t block = 0; block < 6; ++block) {
        const std::uint64_t word = fault_active_word(key, model, block);
        for (unsigned bit = 0; bit < 64; ++bit) {
          ASSERT_EQ((word >> bit) & 1u,
                    fault_active(key, model, block * 64 + bit) ? 1u : 0u)
              << fault_model_name(model) << " block " << block << " bit "
              << bit;
        }
      }
    }
  }
}

TEST(ActivationStreams, SeuFiresOncePerWindowIntermittentWholeBursts) {
  const std::uint64_t key = fault_stream_key(
      Fault{{3, netlist::Site::kOutputPin}, true, FaultModel::kTransientSEU});
  for (std::uint64_t window = 0; window < 32; ++window) {
    unsigned active = 0;
    for (unsigned t = 0; t < kSeuWindow; ++t) {
      active += fault_active(key, FaultModel::kTransientSEU,
                             window * kSeuWindow + t)
                    ? 1
                    : 0;
    }
    EXPECT_EQ(active, 1u) << "window " << window;
  }
  // Intermittent activation is burst-granular: within one burst every index
  // agrees, and roughly 1 in kIntermittentPeriod bursts is active.
  unsigned active_bursts = 0;
  for (std::uint64_t burst = 0; burst < 64; ++burst) {
    const bool first =
        fault_active(key, FaultModel::kIntermittent, burst * kIntermittentBurst);
    for (unsigned t = 1; t < kIntermittentBurst; ++t) {
      EXPECT_EQ(fault_active(key, FaultModel::kIntermittent,
                             burst * kIntermittentBurst + t),
                first);
    }
    active_bursts += first ? 1 : 0;
  }
  EXPECT_GT(active_bursts, 0u);
  EXPECT_LT(active_bursts, 64u);
  // Stuck-at and transition streams are always-on.
  EXPECT_TRUE(fault_active(key, FaultModel::kStuckAt, 123));
  EXPECT_TRUE(fault_active(key, FaultModel::kTransition, 123));
}

TEST(ActivationStreams, DistinctFaultsGetIndependentStreams) {
  const Fault a{{3, netlist::Site::kOutputPin}, true,
                FaultModel::kTransientSEU};
  Fault b = a;
  b.stuck_value = false;
  Fault c = a;
  c.model = FaultModel::kIntermittent;
  EXPECT_NE(fault_stream_key(a), fault_stream_key(b));
  EXPECT_NE(fault_stream_key(a), fault_stream_key(c));
  EXPECT_EQ(fault_stream_key(a), fault_stream_key(Fault{a}));
}

// ---- homogeneous-list enforcement ------------------------------------------

TEST(FaultModelRouting, MixedModelListsThrow) {
  const Netlist nl = rtlgen::build_comparator();
  Rng rng(0x11);
  const PatternSet ps = random_patterns(rng, nl, 8);
  const FaultUniverse u(nl);
  std::vector<Fault> mixed = {u.collapsed()[0], u.collapsed()[1]};
  mixed[1].model = FaultModel::kTransientSEU;
  EXPECT_THROW(simulate_comb(nl, mixed, ps), std::invalid_argument);
  EXPECT_THROW(simulate_comb_parallel(nl, mixed, ps), std::invalid_argument);
}

TEST(FaultModelRouting, TransitionFaultsAreCombinationalOnly) {
  const Netlist nl = rtlgen::build_divider({.width = 4});
  Rng rng(0x12);
  const SeqStimulus st = random_stimulus(rng, nl, 8);
  FaultUniverse u(nl, FaultModel::kTransition);
  EXPECT_THROW(simulate_seq(nl, u.collapsed(), st), std::invalid_argument);
  EXPECT_THROW(simulate_seq_parallel(nl, u.collapsed(), st),
               std::invalid_argument);
}

// ---- transition grading: unified taxonomy vs the legacy oracle -------------

TEST(TransitionDifferential, MatchesLegacyOracleOnEveryRtlgenComponent) {
  struct Component {
    const char* name;
    Netlist nl;
  };
  const Component components[] = {
      {"alu", rtlgen::build_alu({.width = 8})},
      {"shifter", rtlgen::build_shifter({.width = 8})},
      {"multiplier", rtlgen::build_multiplier({.width = 8})},
      {"comparator", rtlgen::build_comparator()},
      {"control", rtlgen::build_control()},
      {"forwarding", rtlgen::build_forwarding_unit()},
  };
  Rng rng(0xf00d);
  for (const Component& c : components) {
    ASSERT_TRUE(c.nl.is_combinational()) << c.name;
    const PatternSet ps = random_patterns(rng, c.nl, 96);
    const std::vector<TransitionFault> tf =
        enumerate_transition_faults(c.nl);
    const CoverageResult oracle = simulate_transition(c.nl, tf, ps);
    const FaultUniverse u(c.nl, FaultModel::kTransition);
    ASSERT_EQ(u.size(), tf.size()) << c.name;

    // Serial front door.
    expect_same_flags(oracle, simulate_comb(c.nl, u.collapsed(), ps), c.nl,
                      u.collapsed(), c.name);
    // Parallel front door: engine x lane-width x thread-count matrix.
    for (const Engine engine :
         {Engine::kReference, Engine::kCompiled, Engine::kEvent}) {
      for (const unsigned lanes : {1u, 4u}) {
        for (const unsigned threads : {1u, 2u, 8u}) {
          SimOptions so;
          so.engine = engine;
          so.lanes = lanes;
          so.num_threads = threads;
          const std::string label = std::string(c.name) + "/" +
                                    engine_name(engine) + "/l" +
                                    std::to_string(lanes) + "/t" +
                                    std::to_string(threads);
          expect_same_flags(oracle,
                            simulate_comb_parallel(c.nl, u.collapsed(), ps,
                                                   {}, so),
                            c.nl, u.collapsed(), label.c_str());
        }
      }
    }
  }
}

// ---- windowed models: determinism matrix -----------------------------------

TEST(WindowedDeterminism, CombinationalMatrixIsBitwiseIdentical) {
  const Netlist nl = rtlgen::build_alu({.width = 8});
  Rng rng(0xabcd);
  const PatternSet ps = random_patterns(rng, nl, 192);
  for (const FaultModel model :
       {FaultModel::kTransientSEU, FaultModel::kIntermittent}) {
    const FaultUniverse u(nl, model);
    // Serial oracle: one fault at a time, scalar activation stream.
    const CoverageResult oracle = simulate_serial(nl, u.collapsed(), ps);
    EXPECT_GT(oracle.detected, 0u);
    EXPECT_LT(oracle.detected, oracle.total);
    for (const Engine engine :
         {Engine::kReference, Engine::kCompiled, Engine::kEvent}) {
      for (const unsigned lanes : {1u, 4u}) {
        for (const unsigned threads : {1u, 2u, 8u}) {
          SimOptions so;
          so.engine = engine;
          so.lanes = lanes;
          so.num_threads = threads;
          const std::string label =
              std::string(fault_model_name(model)) + "/" +
              engine_name(engine) + "/l" + std::to_string(lanes) + "/t" +
              std::to_string(threads);
          expect_same_flags(oracle,
                            simulate_comb_parallel(nl, u.collapsed(), ps, {},
                                                   so),
                            nl, u.collapsed(), label.c_str());
        }
      }
    }
  }
}

TEST(WindowedDeterminism, SequentialMatrixIsBitwiseIdentical) {
  const Netlist nl = rtlgen::build_divider({.width = 6});
  Rng rng(0x5eed);
  const SeqStimulus st = random_stimulus(rng, nl, 48);
  for (const FaultModel model :
       {FaultModel::kTransientSEU, FaultModel::kIntermittent}) {
    const FaultUniverse u(nl, model);
    const CoverageResult oracle = grade_seq_oracle(nl, u.collapsed(), st);
    expect_same_flags(oracle, simulate_seq(nl, u.collapsed(), st), nl,
                      u.collapsed(), fault_model_name(model));
    for (const Engine engine :
         {Engine::kReference, Engine::kCompiled, Engine::kEvent}) {
      for (const unsigned threads : {1u, 2u, 8u}) {
        SimOptions so;
        so.engine = engine;
        so.num_threads = threads;
        const std::string label = std::string(fault_model_name(model)) +
                                  "/" + engine_name(engine) + "/t" +
                                  std::to_string(threads);
        expect_same_flags(oracle,
                          simulate_seq_parallel(nl, u.collapsed(), st, {},
                                                so),
                          nl, u.collapsed(), label.c_str());
      }
    }
  }
}

TEST(WindowedDeterminism, WindowedCoverageIsBelowStuckAt) {
  // A windowed fault is a strictly weaker defect than the matching stuck-at:
  // per-model grading must reflect that ordering on a real pattern stream.
  const Netlist nl = rtlgen::build_shifter({.width = 8});
  Rng rng(0x77);
  const PatternSet ps = random_patterns(rng, nl, 256);
  const double sa =
      simulate_comb_parallel(nl, FaultUniverse(nl).collapsed(), ps).percent();
  for (const FaultModel model :
       {FaultModel::kTransientSEU, FaultModel::kIntermittent}) {
    const double fc = simulate_comb_parallel(
                          nl, FaultUniverse(nl, model).collapsed(), ps)
                          .percent();
    EXPECT_LT(fc, sa) << fault_model_name(model);
    EXPECT_GT(fc, 0.0) << fault_model_name(model);
  }
}

// ---- release API -----------------------------------------------------------

TEST(ReleaseApi, ReleasingALaneMatchesReinjectingTheRest) {
  const Netlist nl = rtlgen::build_alu({.width = 6});
  const FaultUniverse u(nl);
  Rng rng(0x9a9a);
  const PatternSet ps = random_patterns(rng, nl, 64);
  const auto& inputs = nl.inputs();
  const std::vector<netlist::NetId> outputs = nl.output_nets();

  for (const bool event : {false, true}) {
    for (const bool opt : {false, true}) {
      const netlist::CompiledNetlist cn(
          nl, opt ? netlist::CompileOptions::all()
                  : netlist::CompileOptions{});
      netlist::CompiledEvaluator ev(cn, event);
      netlist::CompiledEvaluator fresh(cn, event);
      // Inject 8 faults in lanes 1..8, release half of them, and require
      // the surviving lanes to match a from-scratch evaluator that only
      // ever saw the surviving faults.
      std::vector<Fault> injected(u.collapsed().begin(),
                                  u.collapsed().begin() + 8);
      for (std::size_t j = 0; j < injected.size(); ++j) {
        ev.inject_lane(injected[j].site, injected[j].stuck_value,
                       static_cast<unsigned>(j + 1));
      }
      for (std::size_t j = 0; j < injected.size(); j += 2) {
        ev.release_lane(injected[j].site, static_cast<unsigned>(j + 1));
      }
      fresh.clear_faults();
      for (std::size_t j = 1; j < injected.size(); j += 2) {
        fresh.inject_lane(injected[j].site, injected[j].stuck_value,
                          static_cast<unsigned>(j + 1));
      }
      for (std::size_t b = 0; b < ps.block_count(); ++b) {
        const auto& words = ps.block(b);
        for (std::size_t k = 0; k < inputs.size(); ++k) {
          ev.set_input_word(inputs[k], words[k]);
          fresh.set_input_word(inputs[k], words[k]);
        }
        ev.eval();
        fresh.eval();
        for (const netlist::NetId out : outputs) {
          ASSERT_EQ(ev.value(out), fresh.value(out))
              << "event " << event << " opt " << opt << " block " << b;
        }
      }
    }
  }
}

TEST(ReleaseApi, ReferenceEvaluatorReleaseMatchesReinjection) {
  const Netlist nl = rtlgen::build_comparator();
  const FaultUniverse u(nl);
  Rng rng(0x1d1d);
  const PatternSet ps = random_patterns(rng, nl, 64);
  const auto& inputs = nl.inputs();
  const std::vector<netlist::NetId> outputs = nl.output_nets();
  netlist::Evaluator ev(nl);
  netlist::Evaluator fresh(nl);
  std::vector<Fault> injected(u.collapsed().begin(),
                              u.collapsed().begin() + 6);
  for (std::size_t j = 0; j < injected.size(); ++j) {
    ev.inject_lane(injected[j].site, injected[j].stuck_value,
                   static_cast<unsigned>(j + 1));
  }
  for (std::size_t j = 0; j < injected.size(); j += 2) {
    ev.release_lane(injected[j].site, static_cast<unsigned>(j + 1));
  }
  for (std::size_t j = 1; j < injected.size(); j += 2) {
    fresh.inject_lane(injected[j].site, injected[j].stuck_value,
                      static_cast<unsigned>(j + 1));
  }
  const auto& words0 = ps.block(0);
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    ev.set_input_word(inputs[k], words0[k]);
    fresh.set_input_word(inputs[k], words0[k]);
  }
  ev.eval();
  fresh.eval();
  for (const netlist::NetId out : outputs) {
    EXPECT_EQ(ev.value(out), fresh.value(out));
  }
}

}  // namespace
}  // namespace sbst::fault

// ---- store codec bump + per-model session caching --------------------------

namespace sbst::core {
namespace {

struct TempStoreDir {
  fs::path path;
  explicit TempStoreDir(const std::string& tag) {
    path = fs::path(::testing::TempDir()) /
           (std::string("sbst-faultmodel-") + tag);
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempStoreDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

TEST(FaultModelStore, SerializedImageRoundTripsWithModelHeader) {
  const ProcessorModel model;
  const netlist::Netlist& nl = model.component(CutId::kShifter).netlist;
  for (const fault::FaultModel fm :
       {fault::FaultModel::kStuckAt, fault::FaultModel::kTransition,
        fault::FaultModel::kTransientSEU, fault::FaultModel::kIntermittent}) {
    const fault::FaultUniverse u(nl, fm);
    common::ByteWriter w;
    u.serialize(w);
    const std::vector<std::uint8_t> bytes = w.take();
    common::ByteReader r(bytes);
    const auto back = fault::FaultUniverse::deserialize(nl, r);
    ASSERT_NE(back, nullptr) << fault::fault_model_name(fm);
    EXPECT_EQ(back->model(), fm);
    EXPECT_EQ(back->collapsed(), u.collapsed());
    EXPECT_EQ(back->uncollapsed_count(), u.uncollapsed_count());
  }
}

TEST(FaultModelStore, PreBumpV1PayloadIsASilentMissAndGetsRebuilt) {
  const ProcessorModel model;
  const netlist::Netlist& nl = model.component(CutId::kAlu).netlist;
  TempStoreDir dir("v1");
  auto store = std::make_shared<store::ArtifactStore>(dir.str());

  // A v1-era universe image (no version-2 model header byte) planted under
  // the exact key the session probes today. The codec must reject it
  // without crashing; the session treats it as a silent miss.
  common::ByteWriter w;
  w.put_u32(1);  // pre-bump format version
  w.put_u64(42);
  w.put_u64(1);
  w.put_u32(0);
  w.put_u8(netlist::Site::kOutputPin);
  w.put_bool(true);
  store::ArtifactKey key;
  key.kind = "universe";
  key.version = fault::FaultUniverse::kSerialVersion;
  key.content = nl.content_hash();
  ASSERT_TRUE(store->save(key, w.take()));

  GradingSession session(model, {.num_threads = 1, .store = store});
  const fault::FaultUniverse& u = session.universe(CutId::kAlu);
  EXPECT_GT(u.size(), 0u);
  EXPECT_EQ(u.model(), fault::FaultModel::kStuckAt);
  EXPECT_EQ(session.stats().store_invalid, 1u);
  EXPECT_EQ(session.stats().universe_builds, 1u);
  EXPECT_EQ(session.stats().store_hits, 0u);

  // The rebuild rewrote the entry in the v2 format: a fresh session hits.
  auto store2 = std::make_shared<store::ArtifactStore>(dir.str());
  GradingSession warm(model, {.num_threads = 1, .store = store2});
  const fault::FaultUniverse& u2 = warm.universe(CutId::kAlu);
  EXPECT_EQ(u2.collapsed(), u.collapsed());
  EXPECT_EQ(warm.stats().store_hits, 1u);
  EXPECT_EQ(warm.stats().universe_builds, 0u);
  EXPECT_EQ(warm.stats().store_invalid, 0u);
}

TEST(FaultModelStore, ModelHeaderMismatchWithKeyIsInvalidAndRebuilt) {
  const ProcessorModel model;
  const netlist::Netlist& nl = model.component(CutId::kAlu).netlist;
  TempStoreDir dir("mismatch");
  auto store = std::make_shared<store::ArtifactStore>(dir.str());

  // A well-formed stuck-at image planted under the transition-model key:
  // the embedded model byte disagrees with the key's mode axis, so the
  // session must rebuild rather than hand back a mistagged universe.
  const fault::FaultUniverse stuck(nl);
  common::ByteWriter w;
  stuck.serialize(w);
  store::ArtifactKey key;
  key.kind = "universe";
  key.version = fault::FaultUniverse::kSerialVersion;
  key.mode =
      static_cast<std::uint8_t>(fault::FaultModel::kTransition);
  key.content = nl.content_hash();
  ASSERT_TRUE(store->save(key, w.take()));

  GradingSession session(model, {.num_threads = 1, .store = store});
  const fault::FaultUniverse& u =
      session.universe(CutId::kAlu, fault::FaultModel::kTransition);
  EXPECT_EQ(u.model(), fault::FaultModel::kTransition);
  EXPECT_EQ(session.stats().store_invalid, 1u);
  EXPECT_EQ(session.stats().universe_builds, 1u);
}

TEST(FaultModelSession, PerModelUniversesAreCachedSeparately) {
  const ProcessorModel model;
  GradingSession session(model, {.num_threads = 1});
  const fault::FaultUniverse& sa = session.universe(CutId::kAlu);
  const fault::FaultUniverse& tr =
      session.universe(CutId::kAlu, fault::FaultModel::kTransition);
  const fault::FaultUniverse& seu =
      session.universe(CutId::kAlu, fault::FaultModel::kTransientSEU);
  EXPECT_EQ(sa.model(), fault::FaultModel::kStuckAt);
  EXPECT_EQ(tr.model(), fault::FaultModel::kTransition);
  EXPECT_EQ(seu.model(), fault::FaultModel::kTransientSEU);
  // The collapse is value-based and shared, so sizes agree while the
  // representative tags differ.
  EXPECT_EQ(sa.size(), tr.size());
  EXPECT_EQ(session.stats().universe_builds, 3u);
  // Repeat calls hit the per-(cut, model) slots.
  session.universe(CutId::kAlu, fault::FaultModel::kTransition);
  session.universe(CutId::kAlu);
  EXPECT_EQ(session.stats().universe_builds, 3u);
  EXPECT_EQ(session.stats().universe_hits, 2u);
}

}  // namespace
}  // namespace sbst::core
