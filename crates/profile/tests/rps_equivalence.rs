//! The value profiler against an independent reference.
//!
//! [`ReferenceProfiler`] (`common/reference_rps.rs`) keeps the plain
//! data layout the profiler once had: a keyed loop map, linear
//! live-in scans, a `VecDeque` recent window and multi-probe capped
//! maps. Both are driven by one emulation through a tee sink, and
//! every observable counter must agree: on all 13 workloads (training
//! and reference builds at scale 1) and on generated programs that
//! overflow each tracking cap, recur inside and outside the recent
//! window, nest loops, call from a loop and enter one loop at two call
//! depths. Golden digests of each workload's profile and reuse
//! potential, computed with the reference layout, pin both against
//! drift in the shared event stream.

#[path = "common/reference_rps.rs"]
mod reference_rps;

use ccr_ir::{BinKind, CmpPred, Operand, Program, ProgramBuilder};
use ccr_opt::{optimize, OptConfig};
use ccr_profile::rps::LoopMeta;
use ccr_profile::{
    Emulator, MultiSink, NullCrb, PotentialStudy, ReusePotential, ReuseProfile, ValueProfiler,
};
use ccr_workloads::{build, InputSet, NAMES};
use proptest::prelude::*;
use reference_rps::{
    ReferenceProfile, ReferenceProfiler, MAX_TRACKED_LOCATIONS, MAX_TRACKED_VECTORS,
};

/// Runs both profilers over one emulation of `program`.
fn profile_both(
    program: &Program,
    production: ValueProfiler,
    reference: ReferenceProfiler,
) -> (ReuseProfile, ReferenceProfile) {
    let (mut production, mut reference) = (production, reference);
    Emulator::new(program)
        .run(
            &mut NullCrb,
            &mut MultiSink::new(&mut production, &mut reference),
        )
        .expect("within limits");
    (production.finish(), reference.finish())
}

/// The loop metadata, keyed, so order does not matter.
fn keyed(mut metas: Vec<LoopMeta>) -> Vec<String> {
    metas.sort_by_key(|m| m.key);
    metas.iter().map(|m| format!("{m:?}")).collect()
}

/// The first observable on which the two profiles differ.
fn compare(program: &Program, got: &ReuseProfile, want: &ReferenceProfile) -> Result<(), String> {
    if got.total_dyn_instrs != want.total_dyn_instrs {
        return Err(format!(
            "total_dyn_instrs {} vs {}",
            got.total_dyn_instrs, want.total_dyn_instrs
        ));
    }
    for (_, instr) in program.iter_instrs() {
        let id = instr.id;
        let scalars = |exec, recent: f64, mem: f64, taken: f64, inv1: f64, inv5: f64| {
            (
                exec,
                recent.to_bits(),
                mem.to_bits(),
                taken.to_bits(),
                inv1.to_bits(),
                inv5.to_bits(),
            )
        };
        let g = scalars(
            got.exec(id),
            got.recent_ratio(id),
            got.mem_unchanged_ratio(id),
            got.taken_ratio(id),
            got.invariance_ratio(id, 1),
            got.invariance_ratio(id, 5),
        );
        let w = scalars(
            want.exec(id),
            want.recent_ratio(id),
            want.mem_unchanged_ratio(id),
            want.taken_ratio(id),
            want.invariance_ratio(id, 1),
            want.invariance_ratio(id, 5),
        );
        if g != w {
            return Err(format!(
                "{id}: (exec, recent, mem, taken, inv1, inv5) {g:?} vs {w:?}"
            ));
        }
        match (got.instr_profile(id), want.instr_profile(id)) {
            (None, None) => {}
            (Some(g), Some(w)) => {
                let g_counts = (g.exec, g.recent_hits, g.taken, g.distinct_vectors());
                let w_counts = (w.exec, w.recent_hits, w.taken, w.distinct_vectors());
                if g_counts != w_counts {
                    return Err(format!(
                        "{id}: (exec, recent_hits, taken, distinct) {g_counts:?} vs {w_counts:?}"
                    ));
                }
                for k in 0..=MAX_TRACKED_VECTORS + 1 {
                    if g.invariance_top(k) != w.invariance_top(k) {
                        return Err(format!(
                            "{id}: invariance_top({k}) {} vs {}",
                            g.invariance_top(k),
                            w.invariance_top(k)
                        ));
                    }
                }
            }
            (g, w) => return Err(format!("{id}: profiled {} vs {}", g.is_some(), w.is_some())),
        }
    }
    let mut got_cyclic: Vec<_> = got
        .iter_cyclic()
        .map(|(k, c)| {
            (
                *k,
                c.invocations,
                c.multi_iteration,
                c.reuse_opportunities,
                c.total_iterations,
            )
        })
        .collect();
    let mut want_cyclic: Vec<_> = want
        .cyclic
        .iter()
        .map(|(k, c)| {
            (
                *k,
                c.invocations,
                c.multi_iteration,
                c.reuse_opportunities,
                c.total_iterations,
            )
        })
        .collect();
    got_cyclic.sort();
    want_cyclic.sort();
    if got_cyclic != want_cyclic {
        return Err(format!("cyclic {got_cyclic:?} vs {want_cyclic:?}"));
    }
    Ok(())
}

/// An FNV-1a digest of every public observation of a profile.
fn digest(program: &Program, profile: &ReuseProfile) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    word(profile.total_dyn_instrs);
    for (_, instr) in program.iter_instrs() {
        let id = instr.id;
        word(id.index() as u64);
        word(profile.exec(id));
        word(profile.recent_ratio(id).to_bits());
        word(profile.mem_unchanged_ratio(id).to_bits());
        word(profile.taken_ratio(id).to_bits());
        if let Some(p) = profile.instr_profile(id) {
            word(p.recent_hits);
            word(p.taken);
            word(p.distinct_vectors() as u64);
            for k in 1..=p.distinct_vectors() {
                word(p.invariance_top(k));
            }
        }
    }
    let mut cyclic: Vec<_> = profile.iter_cyclic().collect();
    cyclic.sort_by_key(|(k, _)| **k);
    for (key, c) in cyclic {
        word(u64::from(key.func.0));
        word(u64::from(key.header.0));
        word(c.invocations);
        word(c.multi_iteration);
        word(c.reuse_opportunities);
        word(c.total_iterations);
    }
    h
}

fn potential(program: &Program) -> ReusePotential {
    let mut study = PotentialStudy::for_program(program);
    Emulator::new(program)
        .run(&mut NullCrb, &mut study)
        .expect("within limits");
    study.finish()
}

/// The optimized scale-1 build the compiler profiles.
fn optimized(name: &str, input: InputSet) -> Program {
    let mut p = build(name, input, 1).expect("registered workload");
    optimize(&mut p, OptConfig::default());
    p
}

/// Per workload: profile digests of the optimized training and
/// reference builds at scale 1.
const PROFILE_GOLDEN: [(&str, u64, u64); 13] = [
    ("008.espresso", 0x7ae2896dfef86dec, 0x2387d8e914e57801),
    ("072.sc", 0x9503070e34db3c80, 0x946621bfe931f806),
    ("099.go", 0xb6af9fbeb54bc0c0, 0xe05e30ef55fe193e),
    ("124.m88ksim", 0x7fbbd2574aa27983, 0xf14896444fcb90af),
    ("126.gcc", 0x9a737c9d9a6bebdb, 0x1d372818b91c975a),
    ("129.compress", 0xbaeeb7df59bb8ff5, 0xf62459e76288db6f),
    ("130.li", 0xf118c82ce195b1d9, 0x7ef1c51c89c2d5f6),
    ("132.ijpeg", 0x30fa8556275c5fe4, 0xec8f87096c9ba339),
    ("147.vortex", 0x3bdb927b53e11ab8, 0x905aab9457908469),
    ("lex", 0x67b746ecdf3e99fb, 0xf7e500d4148481fe),
    ("yacc", 0x078aceefa06af30d, 0x078b2236d547c6f1),
    ("mpeg2enc", 0x723cc598dc98776a, 0xd512f3614e676aab),
    ("pgpencode", 0x13e99ac8bc28121d, 0x237683588aa3005f),
];

/// Per workload: `ReusePotential` fields (total, block, region,
/// cyclic) of the unoptimized training and reference builds at
/// scale 1, as the Figure 4 study measures them.
const POTENTIAL_GOLDEN: [(&str, [u64; 4], [u64; 4]); 13] = [
    (
        "008.espresso",
        [254108, 53232, 67248, 14976],
        [254108, 54997, 70453, 16896],
    ),
    (
        "072.sc",
        [215694, 50484, 60132, 10992],
        [215694, 56300, 64316, 8688],
    ),
    (
        "099.go",
        [184694, 46429, 55309, 10704],
        [184618, 44362, 56026, 11664],
    ),
    (
        "124.m88ksim",
        [422122, 94095, 216347, 181232],
        [422122, 97858, 221918, 184320],
    ),
    (
        "126.gcc",
        [225176, 55407, 72351, 19056],
        [224628, 57409, 73345, 21648],
    ),
    (
        "129.compress",
        [292974, 37939, 49219, 14304],
        [292950, 41671, 52951, 16176],
    ),
    (
        "130.li",
        [271588, 57061, 68965, 13392],
        [270326, 56395, 67483, 14496],
    ),
    (
        "132.ijpeg",
        [199854, 73246, 80110, 7152],
        [199854, 70150, 75478, 5568],
    ),
    (
        "147.vortex",
        [263710, 45852, 60972, 16416],
        [263710, 47380, 59332, 13248],
    ),
    (
        "lex",
        [247007, 54714, 66426, 13440],
        [248287, 50586, 62250, 13872],
    ),
    (
        "yacc",
        [179528, 38154, 50202, 14496],
        [176928, 46210, 60610, 18288],
    ),
    (
        "mpeg2enc",
        [213934, 65606, 72998, 8784],
        [213934, 60532, 69172, 9984],
    ),
    (
        "pgpencode",
        [239404, 46899, 57555, 13344],
        [239404, 46937, 59513, 13872],
    ),
];

#[test]
fn goldens_cover_every_workload() {
    let names: Vec<&str> = PROFILE_GOLDEN.iter().map(|g| g.0).collect();
    assert_eq!(names, NAMES);
    let names: Vec<&str> = POTENTIAL_GOLDEN.iter().map(|g| g.0).collect();
    assert_eq!(names, NAMES);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "suite-scale: run with --release")]
fn profiler_matches_reference_on_every_workload() {
    for name in NAMES {
        for input in [InputSet::Train, InputSet::Ref] {
            let p = optimized(name, input);
            let production = ValueProfiler::for_program(&p);
            let reference = ReferenceProfiler::for_program(&p);
            assert_eq!(
                keyed(production.loop_metas()),
                keyed(reference.loop_metas()),
                "{name} {input:?}: loop metadata"
            );
            let (got, want) = profile_both(&p, production, reference);
            if let Err(e) = compare(&p, &got, &want) {
                panic!("{name} {input:?}: {e}");
            }
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "suite-scale: run with --release")]
fn profiles_match_golden_digests() {
    for (name, train, reference) in PROFILE_GOLDEN {
        for (input, want) in [(InputSet::Train, train), (InputSet::Ref, reference)] {
            let p = optimized(name, input);
            let mut profiler = ValueProfiler::for_program(&p);
            Emulator::new(&p)
                .run(&mut NullCrb, &mut profiler)
                .expect("within limits");
            let got = digest(&p, &profiler.finish());
            assert_eq!(got, want, "{name} {input:?}: profile digest {got:#018x}");
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "suite-scale: run with --release")]
fn potentials_match_goldens() {
    for (name, train, reference) in POTENTIAL_GOLDEN {
        for (input, want) in [(InputSet::Train, train), (InputSet::Ref, reference)] {
            let pot = potential(&build(name, input, 1).expect("registered workload"));
            let got = [
                pot.total_instrs,
                pot.block_reusable,
                pot.region_reusable,
                pot.cyclic_reusable,
            ];
            assert_eq!(got, want, "{name} {input:?}: reuse potential");
        }
    }
}

/// Shape of a generated program: nested loops over a recurring table,
/// a kernel with a chosen number of distinct input vectors, a wide
/// scan over many locations, and a helper loop entered at one or two
/// call depths.
#[derive(Clone, Debug)]
struct Spec {
    /// Table scanned by the inner loop; its padded length is the
    /// period at which the loaded values recur.
    pool: Vec<i64>,
    /// Distinct input vectors of the kernel multiply.
    modulus: i64,
    outer: i64,
    inner: i64,
    /// Locations read by the wide scan each outer iteration.
    wide: usize,
    /// Store into the table between inner-loop invocations.
    store: bool,
    /// Call a leaf function from the inner loop (an impure loop).
    call_in_loop: bool,
    /// Also reach the helper loop through a second call level.
    two_depths: bool,
}

fn spec() -> impl Strategy<Value = Spec> {
    (
        prop::collection::vec(-4i64..4, 1..24),
        1i64..200,
        (1i64..5, 1i64..40),
        prop_oneof![Just(0usize), 1usize..64, 4000usize..4400],
        (any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |(pool, modulus, (outer, inner), wide, (store, call_in_loop, two_depths))| Spec {
                pool,
                modulus,
                outer,
                inner,
                wide,
                store,
                call_in_loop,
                two_depths,
            },
        )
}

fn generate(spec: &Spec) -> Program {
    let mut pb = ProgramBuilder::new();
    let n = spec.pool.len().next_power_of_two();
    let mut init = spec.pool.clone();
    init.resize(n, 1);
    let t = pb.table("t", init);
    let w = pb.table("w", (0..spec.wide.max(1) as i64).map(|i| i % 7).collect());

    let leaf = pb.declare("leaf", 1, 1);
    let mut f = pb.function_body(leaf);
    let x = f.param(0);
    let y = f.mul(x, 3);
    f.ret(&[Operand::Reg(y)]);
    pb.finish_function(f);

    // helper(x): a pure loop summing the table against `x`.
    let helper = pb.declare("helper", 1, 1);
    let mut f = pb.function_body(helper);
    let x = f.param(0);
    let k = f.movi(0);
    let s = f.movi(0);
    let body = f.block();
    let done = f.block();
    f.jump(body);
    f.switch_to(body);
    let m = f.and(k, n as i64 - 1);
    let v = f.load(t, m);
    let e = f.xor(v, x);
    f.bin_into(BinKind::Add, s, s, e);
    f.inc(k, 1);
    f.br(CmpPred::Lt, k, 6, body, done);
    f.switch_to(done);
    f.ret(&[Operand::Reg(s)]);
    pb.finish_function(f);

    // wrapper(x) = helper(x), one call level deeper.
    let wrapper = pb.declare("wrapper", 1, 1);
    let mut f = pb.function_body(wrapper);
    let x = f.param(0);
    let r = f.call(helper, &[Operand::Reg(x)], 1)[0];
    f.ret(&[Operand::Reg(r)]);
    pb.finish_function(f);

    let mut f = pb.function("main", 0, 1);
    let acc = f.movi(0);
    let o = f.movi(0);
    let j = f.fresh();
    let s = f.fresh();
    let outer = f.block();
    let inner = f.block();
    let after = f.block();
    let scan = f.block();
    let next = f.block();
    let done = f.block();
    f.jump(outer);

    f.switch_to(outer);
    f.assign(j, 0);
    f.assign(s, 0);
    f.jump(inner);

    // The inner loop: a recurring table load and a kernel whose
    // input vector takes `modulus` distinct values.
    f.switch_to(inner);
    let m = f.and(j, n as i64 - 1);
    let v = f.load(t, m);
    f.bin_into(BinKind::Add, s, s, v);
    let oj = f.mul(o, spec.inner);
    let idx = f.add(oj, j);
    let q = f.rem(idx, spec.modulus);
    let sq = f.mul(q, q);
    f.bin_into(BinKind::Xor, s, s, sq);
    if spec.call_in_loop {
        let r = f.call(leaf, &[Operand::Reg(v)], 1)[0];
        f.bin_into(BinKind::Add, s, s, r);
    }
    f.inc(j, 1);
    f.br(CmpPred::Lt, j, spec.inner, inner, after);

    f.switch_to(after);
    f.bin_into(BinKind::Add, acc, acc, s);
    if spec.store {
        let slot = f.and(o, n as i64 - 1);
        f.store(t, slot, o);
    }
    let arg = f.and(o, 1);
    let r = f.call(helper, &[Operand::Reg(arg)], 1)[0];
    f.bin_into(BinKind::Add, acc, acc, r);
    if spec.two_depths {
        let r = f.call(wrapper, &[Operand::Reg(arg)], 1)[0];
        f.bin_into(BinKind::Add, acc, acc, r);
    }
    f.assign(j, 0);
    if spec.wide > 0 {
        f.jump(scan);
    } else {
        f.jump(next);
    }

    // The wide scan: one load over `wide` locations.
    f.switch_to(scan);
    let v = f.load(w, j);
    f.bin_into(BinKind::Add, acc, acc, v);
    f.inc(j, 1);
    f.br(CmpPred::Lt, j, spec.wide as i64, scan, next);

    f.switch_to(next);
    f.inc(o, 1);
    f.br(CmpPred::Lt, o, spec.outer, outer, done);
    f.switch_to(done);
    f.ret(&[Operand::Reg(acc)]);
    let id = pb.finish_function(f);
    pb.set_main(id);
    pb.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated programs profile identically under both layouts.
    #[test]
    fn generated_programs_profile_like_the_reference(s in spec()) {
        let p = generate(&s);
        let (got, want) = profile_both(
            &p,
            ValueProfiler::for_program(&p),
            ReferenceProfiler::for_program(&p),
        );
        if let Err(e) = compare(&p, &got, &want) {
            return Err(TestCaseError::fail(e));
        }
    }

    /// A duplicated loop key keeps its last metadata, in both.
    #[test]
    fn duplicated_loop_keys_keep_the_last_meta(s in spec()) {
        let p = generate(&s);
        let mut metas = ValueProfiler::for_program(&p).loop_metas();
        metas.sort_by_key(|m| m.key);
        let flipped: Vec<LoopMeta> = metas
            .iter()
            .map(|m| LoopMeta { impure: !m.impure, ..m.clone() })
            .collect();
        metas.extend(flipped);
        let (got, want) = profile_both(
            &p,
            ValueProfiler::new(&p, metas.clone()),
            ReferenceProfiler::new(&p, metas),
        );
        if let Err(e) = compare(&p, &got, &want) {
            return Err(TestCaseError::fail(e));
        }
    }
}

/// The generator reaches what the proptests claim: both caps overflow,
/// values recur inside and outside the window, and the helper loop
/// runs at two call depths.
#[test]
fn generator_reaches_every_cap() {
    let s = Spec {
        pool: vec![1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 4],
        modulus: 150,
        outer: 3,
        inner: 30,
        wide: MAX_TRACKED_LOCATIONS + 100,
        store: true,
        call_in_loop: false,
        two_depths: true,
    };
    let p = generate(&s);
    let (got, want) = profile_both(
        &p,
        ValueProfiler::for_program(&p),
        ReferenceProfiler::for_program(&p),
    );
    compare(&p, &got, &want).unwrap();
    let ids: Vec<_> = p.iter_instrs().map(|(_, i)| i.id).collect();
    let capped = ids
        .iter()
        .filter_map(|&id| want.instr_profile(id))
        .any(|ip| ip.distinct_vectors() == MAX_TRACKED_VECTORS && ip.overflow() > 0);
    assert!(capped, "no instruction overflowed the vector cap");
    let wide = ids
        .iter()
        .filter_map(|&id| want.mem_profile(id))
        .any(|mp| mp.tracked_locations() == MAX_TRACKED_LOCATIONS);
    assert!(wide, "no load overflowed the location cap");
    let recurring = ids
        .iter()
        .filter_map(|&id| want.instr_profile(id))
        .any(|ip| ip.recent_hits > 0 && ip.recent_hits < ip.exec);
    assert!(
        recurring,
        "no instruction recurred both in and out of the window"
    );
    assert!(
        want.cyclic.len() >= 3,
        "inner, helper and scan loops: {:?}",
        want.cyclic.keys()
    );
}
