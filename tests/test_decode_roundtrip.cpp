// Decoded micro-op core: encoding round-trips, decode_uop metadata fuzz,
// exec_detail datapath replicas vs the rtlgen golden models, and the
// differential contract — run()/run_sink() must be bitwise-identical to
// run_interpreter() in stats, architectural state, and hook streams.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/evaluate.hpp"
#include "core/inject.hpp"
#include "core/program.hpp"
#include "fault/sim.hpp"
#include "isa/assembler.hpp"
#include "isa/decode.hpp"
#include "isa/disasm.hpp"
#include "isa/encoding.hpp"
#include "rtlgen/alu.hpp"
#include "rtlgen/memctrl.hpp"
#include "rtlgen/shifter.hpp"
#include "sim/cpu.hpp"
#include "sim/exec.hpp"

namespace sbst {
namespace {

// Every encoding the builders can produce, with a pc each is disassembled
// at (branches/jumps print absolute targets).
struct Encoded {
  std::uint32_t word;
  std::uint32_t pc;
};

std::vector<Encoded> builder_words() {
  std::vector<Encoded> out;
  auto at = [&](std::uint32_t word, std::uint32_t pc = 0x40) {
    out.push_back({word, pc});
  };
  at(isa::sll(2, 3, 7));
  at(isa::srl(4, 5, 31));
  at(isa::sra(6, 7, 1));
  at(isa::sllv(8, 9, 10));
  at(isa::srlv(11, 12, 13));
  at(isa::srav(14, 15, 16));
  at(isa::jr(31));
  at(isa::brk());
  at(isa::mfhi(17));
  at(isa::mthi(18));
  at(isa::mflo(19));
  at(isa::mtlo(20));
  at(isa::mult(21, 22));
  at(isa::multu(23, 24));
  at(isa::div(25, 26));
  at(isa::divu(27, 28));
  at(isa::add(1, 2, 3));
  at(isa::addu(4, 5, 6));
  at(isa::sub(7, 8, 9));
  at(isa::subu(10, 11, 12));
  at(isa::and_(13, 14, 15));
  at(isa::or_(16, 17, 18));
  at(isa::xor_(19, 20, 21));
  at(isa::nor_(22, 23, 24));
  at(isa::slt(25, 26, 27));
  at(isa::sltu(28, 29, 30));
  at(isa::beq(1, 2, 5));
  at(isa::bne(3, 4, -3));
  at(isa::addi(5, 6, -42));
  at(isa::addiu(7, 8, 0x7fff));
  at(isa::slti(9, 10, -1));
  at(isa::sltiu(11, 12, 100));
  at(isa::andi(13, 14, 0xf0f0));
  at(isa::ori(15, 16, 0x00ff));
  at(isa::xori(17, 18, 0xffff));
  at(isa::lui(19, 0x8000));
  at(isa::lb(20, -4, 21));
  at(isa::lh(22, 6, 23));
  at(isa::lw(24, 128, 25));
  at(isa::lbu(26, 1, 27));
  at(isa::lhu(28, 2, 29));
  at(isa::sb(30, -8, 1));
  at(isa::sh(2, 10, 3));
  at(isa::sw(4, 0x100, 5));
  at(isa::j(0x50 >> 2));
  at(isa::jal(0x80 >> 2));
  at(isa::nop());
  return out;
}

// Independent reimplementation of the interpreter's operand-read table,
// deliberately written from the spec (not shared with flags_of) so the two
// can disagree.
std::uint8_t expected_flags(std::uint32_t word) {
  const isa::Fields f = isa::decode(word);
  const std::uint8_t rs = isa::kUopReadsRs, rt = isa::kUopReadsRt;
  if (f.opcode == 0x00) {
    if (f.funct == 0x00 || f.funct == 0x02 || f.funct == 0x03) return rt;
    if (f.funct == 0x08 || f.funct == 0x11 || f.funct == 0x13) return rs;
    if (f.funct == 0x10 || f.funct == 0x12 || f.funct == 0x0d) return 0;
    return rs | rt;
  }
  if (f.opcode == 0x02 || f.opcode == 0x03 || f.opcode == 0x0f) return 0;
  if (f.opcode == 0x04 || f.opcode == 0x05) return rs | rt;
  if (f.opcode == 0x28 || f.opcode == 0x29 || f.opcode == 0x2b) return rs | rt;
  return rs;
}

TEST(DecodeRoundTrip, EncodeDecodeEveryBuilderWord) {
  for (const Encoded& e : builder_words()) {
    const isa::Fields f = isa::decode(e.word);
    EXPECT_EQ(isa::encode(f), e.word);
  }
}

TEST(DecodeRoundTrip, DisassembleAssembleEveryBuilderWord) {
  for (const Encoded& e : builder_words()) {
    const std::string text = isa::disassemble(e.word, e.pc);
    isa::Program p;
    ASSERT_NO_THROW(p = isa::assemble("  " + text + "\n", e.pc))
        << "word 0x" << std::hex << e.word << " -> '" << text << "'";
    ASSERT_EQ(p.words.size(), 1u) << text;
    EXPECT_EQ(p.words[0], e.word)
        << "'" << text << "' reassembled differently";
  }
}

TEST(DecodeRoundTrip, RandomWordFieldFuzz) {
  // decode() then encode() must reproduce any word whose unused fields are
  // zero; for arbitrary words, decode(encode(decode(w))) is a fixpoint.
  Rng rng(0xdec0de);
  for (int i = 0; i < 200000; ++i) {
    const std::uint32_t w = rng.next32();
    const isa::Fields f = isa::decode(w);
    const std::uint32_t canonical = isa::encode(f);
    const isa::Fields g = isa::decode(canonical);
    EXPECT_EQ(isa::encode(g), canonical);
    EXPECT_EQ(g.opcode, f.opcode);
    if (f.opcode == 0x00) {
      EXPECT_EQ(g.funct, f.funct);
      EXPECT_EQ(g.rd, f.rd);
      EXPECT_EQ(g.shamt, f.shamt);
    } else if (f.opcode == 0x02 || f.opcode == 0x03) {
      EXPECT_EQ(g.target, f.target);
    } else {
      EXPECT_EQ(g.imm, f.imm);
    }
  }
}

TEST(DecodeRoundTrip, DecodeUopMetadataFuzz) {
  Rng rng(0x00bada55);
  auto check = [](std::uint32_t w) {
    const isa::Fields f = isa::decode(w);
    const isa::MicroOp op = isa::decode_uop(w);
    EXPECT_EQ(op.opcode, f.opcode);
    EXPECT_EQ(op.funct, f.funct);
    EXPECT_EQ(op.rs, f.rs);
    EXPECT_EQ(op.rt, f.rt);
    EXPECT_EQ(op.rd, f.rd);
    EXPECT_EQ(op.shamt, f.shamt);
    EXPECT_EQ(op.flags, expected_flags(w)) << "word 0x" << std::hex << w;
    EXPECT_EQ(op.reads_rs(), (op.flags & isa::kUopReadsRs) != 0);
    EXPECT_EQ(op.reads_rt(), (op.flags & isa::kUopReadsRt) != 0);
  };
  for (const Encoded& e : builder_words()) check(e.word);
  for (int i = 0; i < 200000; ++i) check(rng.next32());
}

TEST(DecodeRoundTrip, ExecDetailMatchesRtlgenGoldenModels) {
  Rng rng(7);
  using rtlgen::AluOp;
  using rtlgen::MemSize;
  using rtlgen::ShiftOp;
  for (int i = 0; i < 100000; ++i) {
    const std::uint32_t a = rng.next32(), b = rng.next32();
    const auto alu_op = static_cast<AluOp>(rng.next32() & 7u);
    EXPECT_EQ(sim::exec_detail::alu32(alu_op, a, b),
              rtlgen::alu_ref(alu_op, a, b));
    const ShiftOp shift_op =
        i % 3 == 0 ? ShiftOp::kSll : i % 3 == 1 ? ShiftOp::kSrl : ShiftOp::kSra;
    const unsigned shamt = rng.next32() & 31u;
    EXPECT_EQ(sim::exec_detail::shift32(shift_op, a, shamt),
              rtlgen::shifter_ref(shift_op, a, shamt));
    const MemSize size = i % 3 == 0   ? MemSize::kByte
                         : i % 3 == 1 ? MemSize::kHalf
                                      : MemSize::kWord;
    const std::uint32_t addr =
        size == MemSize::kHalf ? a & ~1u : size == MemSize::kWord ? a & ~3u : a;
    const bool sign = (rng.next32() & 1u) != 0;
    EXPECT_EQ(sim::exec_detail::load_extract(addr, b, size, sign),
              rtlgen::memctrl_load_ref(addr, b, size, sign));
    // Store path: apply the golden model's byte enables to the old word.
    const rtlgen::MemCtrlRef ref = rtlgen::memctrl_store_ref(addr, b, size,
                                                             true);
    const std::uint32_t old = rng.next32();
    std::uint32_t expected = old;
    for (unsigned lane = 0; lane < 4; ++lane) {
      if (ref.byte_en & (1u << lane)) {
        expected = (expected & ~(0xffu << (8 * lane))) |
                   (ref.mem_wdata & (0xffu << (8 * lane)));
      }
    }
    EXPECT_EQ(sim::exec_detail::store_merge(addr, old, b, size), expected);
  }
}

// ---------------------------------------------------------------------------
// Differential: decoded core vs interpreter, full hook streams included.

// Records every trace event as a flat word stream. Works both as virtual
// CpuHooks (interpreter) and as the sink type of TraceSink (decoded core).
class RecordingHooks final : public sim::CpuHooks {
 public:
  std::vector<std::uint64_t> events;

  void on_instruction_start(std::uint32_t pc) override { put(1, pc); }
  void on_alu(rtlgen::AluOp op, std::uint32_t a, std::uint32_t b) override {
    put(2, static_cast<std::uint64_t>(op), a, b);
  }
  void on_shift(rtlgen::ShiftOp op, std::uint32_t v,
                std::uint32_t s) override {
    put(3, static_cast<std::uint64_t>(op), v, s);
  }
  void on_mult(std::uint32_t a, std::uint32_t b) override { put(4, a, b); }
  void on_div(std::uint32_t a, std::uint32_t b) override { put(5, a, b); }
  void on_regfile(std::uint8_t waddr, std::uint32_t wdata, bool wen,
                  std::uint8_t r1, std::uint8_t r2) override {
    put(6, waddr, wdata, wen, r1, r2);
  }
  void on_mem(std::uint32_t addr, std::uint32_t wdata, rtlgen::MemSize size,
              bool sign, bool wr, std::uint32_t rdata) override {
    put(7, addr, wdata, static_cast<std::uint64_t>(size), sign, wr, rdata);
  }
  void on_control(std::uint8_t opcode, std::uint8_t funct) override {
    put(8, opcode, funct);
  }
  void on_forward(std::uint8_t rs, std::uint8_t rt, std::uint8_t ex_rd,
                  bool ex_wen, std::uint8_t mem_rd, bool mem_wen) override {
    put(9, rs, rt, ex_rd, ex_wen, mem_rd, mem_wen);
  }
  void on_branch_flush() override { put(10); }
  void on_branch_target(std::uint32_t pc4, std::uint32_t off) override {
    put(11, pc4, off);
  }

 private:
  template <class... Args>
  void put(std::uint64_t tag, Args... args) {
    events.push_back(tag);
    (events.push_back(static_cast<std::uint64_t>(args)), ...);
  }
};

bool stats_equal(const sim::ExecStats& a, const sim::ExecStats& b) {
  return a.instructions == b.instructions && a.cpu_cycles == b.cpu_cycles &&
         a.pipeline_stall_cycles == b.pipeline_stall_cycles &&
         a.memory_stall_cycles == b.memory_stall_cycles &&
         a.loads == b.loads && a.stores == b.stores &&
         a.icache_misses == b.icache_misses &&
         a.dcache_misses == b.dcache_misses &&
         a.icache_accesses == b.icache_accesses &&
         a.dcache_accesses == b.dcache_accesses && a.halted == b.halted;
}

// Exercises every uop kind plus the hazard corners: load-use, mult/div
// interlocks, taken/untaken branches (flushing and fall-through targets),
// jal/jr with live delay slots, and sub-word memory traffic.
isa::Program edge_program() {
  return isa::assemble(R"(
  addi  $t0, $zero, 100
  sw    $t0, 0x200($zero)
  lw    $t1, 0x200($zero)
  addu  $t2, $t1, $t1
  mult  $t2, $t2
  mfhi  $t3
  mflo  $t3
  addi  $t0, $zero, -7
  div   $t0, $t2
  mflo  $t3
  beq   $t2, $zero, skipped
  sll   $t3, $t3, 3
  bne   $t2, $zero, taken
  srl   $t3, $t3, 1
skipped:
  addi  $s0, $zero, 11
taken:
  sb    $t3, 0x204($zero)
  lbu   $t2, 0x204($zero)
  sh    $t1, 0x206($zero)
  lh    $t2, 0x206($zero)
  lb    $t4, 0x205($zero)
  lhu   $t4, 0x204($zero)
  lui   $t1, 0x1234
  ori   $t1, $t1, 0x5678
  sltu  $t2, $t0, $t1
  slt   $t4, $t0, $t1
  nor   $t5, $t0, $t1
  xori  $t5, $t5, 0xffff
  andi  $t6, $t5, 0x0f0f
  slti  $t6, $t0, -3
  sltiu $t6, $t0, 10
  sub   $t7, $t1, $t0
  subu  $t7, $t1, $t0
  sra   $t7, $t7, 2
  sllv  $t7, $t7, $t0
  srlv  $t7, $t7, $t0
  srav  $t7, $t7, $t0
  xor   $s1, $t7, $t1
  and   $s1, $s1, $t5
  or    $s1, $s1, $t6
  jal   sub
  addi  $s2, $zero, 5
  j     after
  addi  $s3, $zero, 6
sub:
  mthi  $t0
  mtlo  $t1
  jr    $ra
  addi  $s4, $zero, 7
after:
  multu $t1, $t0
  mflo  $s5
  divu  $t1, $t0
  mflo  $s6
  break
)");
}

struct DiffCase {
  const char* name;
  isa::Program image;
  std::uint32_t entry;
  sim::CpuConfig config;
};

std::vector<DiffCase> differential_cases() {
  core::ProcessorModel model;
  core::TestProgramBuilder builder;
  builder.add_default_routines(model);
  const core::TestProgram sbst = builder.build();

  sim::CpuConfig plain;
  plain.icache.enabled = plain.dcache.enabled = false;
  sim::CpuConfig no_fwd = plain;
  no_fwd.forwarding = false;
  sim::CpuConfig predicted = plain;
  predicted.branch_taken_penalty = 2;
  sim::CpuConfig tiny_caches;
  tiny_caches.icache = {.enabled = true, .line_words = 4, .lines = 16,
                        .miss_penalty = 20};
  tiny_caches.dcache = {.enabled = true, .line_words = 4, .lines = 8,
                        .miss_penalty = 20};
  sim::CpuConfig slow_muldiv = plain;
  slow_muldiv.mult_cycles = 32;
  slow_muldiv.div_cycles = 64;

  std::vector<DiffCase> cases;
  cases.push_back({"sbst_default", sbst.image, sbst.entry, {}});
  cases.push_back({"sbst_tiny_caches", sbst.image, sbst.entry, tiny_caches});
  const isa::Program edge = edge_program();
  cases.push_back({"edge_plain", edge, 0, plain});
  cases.push_back({"edge_no_forwarding", edge, 0, no_fwd});
  cases.push_back({"edge_branch_penalty", edge, 0, predicted});
  cases.push_back({"edge_tiny_caches", edge, 0, tiny_caches});
  cases.push_back({"edge_slow_muldiv", edge, 0, slow_muldiv});
  return cases;
}

TEST(DecodedCoreDifferential, StatsStateAndTraceStreamsMatchInterpreter) {
  for (const DiffCase& c : differential_cases()) {
    SCOPED_TRACE(c.name);

    sim::Cpu ref(c.config);
    RecordingHooks ref_trace;
    ref.set_hooks(&ref_trace);
    ref.load(c.image);
    const sim::ExecStats ref_stats = ref.run_interpreter(c.entry);

    sim::Cpu dec(c.config);
    RecordingHooks dec_trace;
    dec.load(c.image);
    sim::TraceSink<RecordingHooks> sink{&dec_trace};
    const sim::ExecStats dec_stats = dec.run_sink(c.entry, sink);

    EXPECT_TRUE(stats_equal(ref_stats, dec_stats));
    EXPECT_EQ(ref_trace.events, dec_trace.events);
    for (unsigned r = 1; r < 32; ++r) EXPECT_EQ(ref.reg(r), dec.reg(r));
    EXPECT_EQ(ref.hi(), dec.hi());
    EXPECT_EQ(ref.lo(), dec.lo());
    for (std::uint32_t a = c.image.base;
         a < c.image.end_address() + 0x400; a += 4) {
      ASSERT_EQ(ref.read_word(a), dec.read_word(a)) << "addr " << a;
    }

    // And the hook-free paths agree with each other too.
    sim::Cpu ref2(c.config);
    ref2.load(c.image);
    const sim::ExecStats ref2_stats = ref2.run_interpreter(c.entry);
    sim::Cpu dec2(c.config);
    dec2.load(c.image);
    const sim::ExecStats dec2_stats = dec2.run(c.entry);
    EXPECT_TRUE(stats_equal(ref2_stats, dec2_stats));
    for (unsigned r = 1; r < 32; ++r) EXPECT_EQ(ref2.reg(r), dec2.reg(r));
  }
}

TEST(DecodedCoreDifferential, IllegalInstructionsThrowSameMessage) {
  for (std::uint32_t word : {isa::encode({.opcode = 0, .funct = 0x3f}),
                             isa::encode({.opcode = 0x3f})}) {
    isa::Program p;
    p.base = 0;
    p.words = {isa::nop(), word};
    std::string interp_msg, decoded_msg;
    sim::Cpu a;
    a.load(p);
    try {
      a.run_interpreter(0);
    } catch (const sim::CpuError& e) {
      interp_msg = e.what();
    }
    sim::Cpu b;
    b.load(p);
    try {
      b.run(0);
    } catch (const sim::CpuError& e) {
      decoded_msg = e.what();
    }
    EXPECT_FALSE(interp_msg.empty());
    EXPECT_EQ(interp_msg, decoded_msg);
  }
}

TEST(DecodedCoreDifferential, SelfModifyingCodeRepatchesDecodedView) {
  // The program overwrites the instruction at `patch` (addi $t0, 1) with
  // "addi $t0, $zero, 42" loaded from data, then executes it.
  isa::Program p = isa::assemble(R"(
  lw    $t1, data($zero)
  sw    $t1, patch($zero)
  nop
patch:
  addi  $t0, $zero, 1
  break
data:
  .word 0
)");
  p.words[p.symbol("data") / 4] = isa::addi(8, 0, 42);

  sim::Cpu interp;
  interp.load(p);
  const sim::ExecStats si = interp.run_interpreter(0);
  sim::Cpu decoded;
  decoded.load(p);
  const sim::ExecStats sd = decoded.run(0);
  EXPECT_TRUE(stats_equal(si, sd));
  EXPECT_EQ(interp.reg(8), 42u);
  EXPECT_EQ(decoded.reg(8), 42u);

  // A shared predecoded image must never be mutated by the patching run.
  auto shared = std::make_shared<const isa::DecodedProgram>(p);
  sim::Cpu first;
  first.load(p, shared);
  first.run(0);
  EXPECT_EQ(first.reg(8), 42u);
  sim::Cpu second;
  second.load(p, shared);
  second.run(0);
  EXPECT_EQ(second.reg(8), 42u);  // still sees the original image
}

TEST(DecodedCoreDifferential, SessionProgramCachesHitAndStayValid) {
  core::ProcessorModel model;
  core::TestProgramBuilder builder;
  builder.add_default_routines(model);
  const core::TestProgram program = builder.build();

  core::GradingSession session(model, {.num_threads = 1, .store = nullptr});
  const auto d1 = session.decoded(program.image);
  const auto d2 = session.decoded(program.image);
  EXPECT_EQ(d1.get(), d2.get());
  const core::GoodRun& g1 = session.good_run(program);
  const core::GoodRun& g2 = session.good_run(program);
  EXPECT_EQ(&g1, &g2);
  EXPECT_TRUE(g1.stats.halted);
  EXPECT_EQ(g1.signatures.size(), core::kSignatureSlots);

  // A different CPU configuration is a different good run.
  sim::CpuConfig no_fwd;
  no_fwd.forwarding = false;
  const core::GoodRun& g3 = session.good_run(program, no_fwd);
  EXPECT_NE(&g1, &g3);
  EXPECT_NE(g1.stats.total_cycles(), g3.stats.total_cycles());

  const core::SessionStats st = session.stats();
  EXPECT_EQ(st.decode_builds, 1u);
  EXPECT_GE(st.decode_hits, 1u);
  EXPECT_EQ(st.goodrun_builds, 2u);
  EXPECT_EQ(st.goodrun_hits, 1u);
}

TEST(DecodedCoreDifferential, InjectionCampaignMatchesOracleAcrossThreads) {
  core::ProcessorModel model;
  core::TestProgramBuilder builder;
  builder.add_default_routines(model);
  const core::TestProgram program = builder.build();

  const netlist::Netlist& nl =
      model.component(core::CutId::kMultiplier).netlist;
  std::vector<fault::Fault> faults = fault::FaultUniverse(nl).collapsed();
  if (faults.size() > 6) faults.resize(6);

  // Oracle: the session-less, one-fault-at-a-time form.
  std::vector<core::InjectionOutcome> oracle;
  for (const fault::Fault& f : faults) {
    oracle.push_back(core::run_with_injection(model, program,
                                              core::CutId::kMultiplier, f));
  }

  for (unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    core::GradingSession session(model,
                                 {.num_threads = threads, .store = nullptr});
    const std::vector<core::InjectionOutcome> out = run_injection_campaign(
        session, program, core::CutId::kMultiplier, faults);
    ASSERT_EQ(out.size(), oracle.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].detected, oracle[i].detected) << i;
      EXPECT_EQ(out[i].corrupted_results, oracle[i].corrupted_results) << i;
      EXPECT_EQ(out[i].good_signatures, oracle[i].good_signatures) << i;
      EXPECT_EQ(out[i].faulty_signatures, oracle[i].faulty_signatures) << i;
    }
  }

  // The cache-off session must produce identical results as well.
  core::GradingSession uncached(
      model, {.num_threads = 2, .cache = false, .store = nullptr});
  const std::vector<core::InjectionOutcome> out = run_injection_campaign(
      uncached, program, core::CutId::kMultiplier, faults);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].detected, oracle[i].detected) << i;
    EXPECT_EQ(out[i].faulty_signatures, oracle[i].faulty_signatures) << i;
  }
}

}  // namespace
}  // namespace sbst
