//! Cross-crate property-based tests: the invariants the reproduction relies
//! on, exercised over randomised inputs.
//!
//! The workspace builds without network access, so instead of `proptest`
//! these tests drive a small deterministic case generator seeded from
//! [`DeterministicRng`]: every run explores the same few hundred random
//! cases, and a failing case prints its inputs so it can be minimised by
//! hand.

use refrint_edram::policy::{DataPolicy, RefreshPolicy, TimePolicy};
use refrint_edram::schedule::{DecaySchedule, LineKind};
use refrint_energy::accounting::EnergyCounts;
use refrint_energy::breakdown::EnergyBreakdown;
use refrint_energy::tech::{CellTech, TechnologyParams};
use refrint_engine::rng::DeterministicRng;
use refrint_engine::stats::StatRegistry;
use refrint_engine::time::Cycle;
use refrint_mem::addr::{Addr, LineAddr};
use refrint_mem::cache::Cache;
use refrint_mem::config::CacheGeometry;
use refrint_mem::line::{CacheLine, MesiState};
use refrint_noc::routing::{hop_count, route};
use refrint_noc::topology::{NodeId, Torus};
use refrint_oracle::cache::{OracleCache, OracleLine};
use refrint_oracle::decay::OracleDecay;
use refrint_workloads::generator::ThreadStream;
use refrint_workloads::model::WorkloadModel;

const CASES: u64 = 96;

fn rng_for(test: u64, case: u64) -> DeterministicRng {
    DeterministicRng::from_seed(0xC0FFEE).fork(test).fork(case)
}

fn arbitrary_data_policy(rng: &mut DeterministicRng) -> DataPolicy {
    match rng.below(4) {
        0 => DataPolicy::All,
        1 => DataPolicy::Valid,
        2 => DataPolicy::Dirty,
        _ => DataPolicy::write_back(rng.below(64) as u32, rng.below(64) as u32),
    }
}

fn arbitrary_time_policy(rng: &mut DeterministicRng) -> TimePolicy {
    if rng.below(2) == 0 {
        TimePolicy::Periodic
    } else {
        TimePolicy::Refrint
    }
}

fn arbitrary_kind(rng: &mut DeterministicRng) -> LineKind {
    match rng.below(3) {
        0 => LineKind::Dirty,
        1 => LineKind::Clean,
        _ => LineKind::Invalid,
    }
}

/// The lazy decay-schedule algebra agrees with the oracle's
/// event-per-opportunity replay on arbitrary policies and intervals. The
/// oracle steps through the opportunities itself rather than asking the
/// schedule for them, so an opportunity-grid bug cannot hide on both sides.
#[test]
fn lazy_settlement_matches_exact_replay() {
    for case in 0..CASES {
        let mut rng = rng_for(1, case);
        let time = arbitrary_time_policy(&mut rng);
        let data = arbitrary_data_policy(&mut rng);
        let kind = arbitrary_kind(&mut rng);
        let retention = rng.range(500, 5_000);
        let margin = ((retention as f64) * rng.unit() * 0.9) as u64;
        let offset = rng.below(5_000);
        let policy = RefreshPolicy::new(time, data);
        let (retention, margin, offset) = (
            Cycle::new(retention),
            Cycle::new(margin),
            Cycle::new(offset),
        );
        let schedule = DecaySchedule::new(policy, retention, margin, offset);
        let touch = Cycle::new(rng.below(20_000));
        let until = touch + Cycle::new(rng.below(300_000));
        let lazy = schedule.settle(kind, touch, until);
        let exact = OracleDecay::new(policy, retention, margin, offset).settle(kind, touch, until);
        assert_eq!(
            lazy, exact,
            "case {case}: {time:?} {data:?} {kind:?} retention={retention} \
             margin={margin} offset={offset} touch={touch} until={until}"
        );
    }
}

/// Settlement is monotone in the horizon: extending the interval never
/// reduces the number of refreshes, and never un-invalidates a line.
#[test]
fn settlement_is_monotone_in_time() {
    for case in 0..CASES {
        let mut rng = rng_for(2, case);
        let data = arbitrary_data_policy(&mut rng);
        let kind = arbitrary_kind(&mut rng);
        let (h1, h2) = (rng.below(100_000), rng.below(100_000));
        let schedule = DecaySchedule::new(
            RefreshPolicy::new(TimePolicy::Refrint, data),
            Cycle::new(1_000),
            Cycle::new(100),
            Cycle::ZERO,
        );
        let (short, long) = (h1.min(h2), h1.max(h2));
        let a = schedule.settle(kind, Cycle::ZERO, Cycle::new(short));
        let b = schedule.settle(kind, Cycle::ZERO, Cycle::new(long));
        assert!(
            b.refreshes >= a.refreshes,
            "case {case}: {data:?} {kind:?} {short}..{long}"
        );
        if a.invalidated_at.is_some() {
            assert_eq!(a.invalidated_at, b.invalidated_at, "case {case}");
        }
        if a.writeback_at.is_some() {
            assert_eq!(a.writeback_at, b.writeback_at, "case {case}");
        }
    }
}

/// Larger WB budgets never decrease the number of refreshes an idle line
/// receives, and never make it die earlier.
#[test]
fn wb_budgets_are_monotone() {
    for case in 0..CASES {
        let mut rng = rng_for(3, case);
        let (n1, m1) = (rng.below(40) as u32, rng.below(40) as u32);
        let (extra_n, extra_m) = (rng.below(40) as u32, rng.below(40) as u32);
        let kind = if rng.below(2) == 0 {
            LineKind::Dirty
        } else {
            LineKind::Clean
        };
        let small = DecaySchedule::new(
            RefreshPolicy::new(TimePolicy::Refrint, DataPolicy::write_back(n1, m1)),
            Cycle::new(1_000),
            Cycle::new(100),
            Cycle::ZERO,
        );
        let large = DecaySchedule::new(
            RefreshPolicy::new(
                TimePolicy::Refrint,
                DataPolicy::write_back(n1 + extra_n, m1 + extra_m),
            ),
            Cycle::new(1_000),
            Cycle::new(100),
            Cycle::ZERO,
        );
        let horizon = Cycle::new(1_000_000);
        let a = small.settle(kind, Cycle::ZERO, horizon);
        let b = large.settle(kind, Cycle::ZERO, horizon);
        assert!(
            b.refreshes >= a.refreshes,
            "case {case}: WB({n1},{m1})+({extra_n},{extra_m})"
        );
        match (a.invalidated_at, b.invalidated_at) {
            (Some(ta), Some(tb)) => assert!(tb >= ta, "case {case}"),
            (None, Some(_)) => panic!("case {case}: larger budget died while smaller survived"),
            _ => {}
        }
    }
}

/// Addresses round-trip through line/set/tag decomposition.
#[test]
fn address_decomposition_round_trips() {
    for case in 0..CASES {
        let mut rng = rng_for(4, case);
        let raw = rng.next_u64();
        let sets_log2 = rng.range(1, 16) as u32;
        let addr = Addr::new(raw >> 6 << 6);
        let line = addr.line(64);
        let sets = 1u64 << sets_log2;
        assert_eq!(
            line.tag(sets) * sets + line.set_index(sets),
            line.raw(),
            "case {case}"
        );
        assert_eq!(line.base_addr(64).line(64), line, "case {case}");
    }
}

/// The packed cache array agrees with the oracle's naive one, operation by
/// operation, on seeded random streams over 1–16 ways × 1–64 sets: every
/// hit or miss, every pre-access line, every evicted line (which pins the
/// LRU victim), and at the end the counters and the resident lines. The
/// array also never exceeds its capacity and counts its dirty lines right.
#[test]
fn cache_array_matches_the_oracle_cache() {
    let as_oracle = |l: CacheLine| OracleLine {
        addr: l.addr.raw(),
        state: l.state,
        last_touch: l.meta.last_touch,
    };
    let states = [
        MesiState::Shared,
        MesiState::Exclusive,
        MesiState::Modified,
        MesiState::SharedModified,
    ];
    for case in 0..CASES {
        let mut rng = rng_for(5, case);
        let ways = [1u8, 2, 4, 8, 16][case as usize % 5];
        let sets = 1u64 << rng.below(7);
        let geometry = CacheGeometry::new(sets * u64::from(ways) * 64, ways, 64).unwrap();
        let mut cache = Cache::new("prop", geometry);
        let mut oracle = OracleCache::new(sets, usize::from(ways));
        // About three lines per way, so sets fill, evict and refill.
        let span = sets * u64::from(ways) * 3;
        for i in 0..rng.range(50, 600) {
            let addr = rng.below(span);
            let line = LineAddr::new(addr);
            let now = Cycle::new(i);
            let state = states[rng.below(4) as usize];
            let resident = oracle.line(addr).is_some();
            assert_eq!(cache.line(line).is_some(), resident, "case {case} op {i}");
            let ctx = format!("case {case} ({sets}x{ways}) op {i} line {addr}");
            match rng.below(6) {
                0 => assert_eq!(
                    cache.lookup_prev(line, now).map(|(l, _)| as_oracle(l)),
                    oracle.lookup_prev(addr, now),
                    "{ctx}"
                ),
                1 if resident => {
                    cache.read_hit(line, now);
                    oracle.read_hit(addr, now);
                }
                2 if resident => {
                    cache.write_hit(line, now);
                    oracle.write_hit(addr, now);
                }
                3 => {
                    assert_eq!(cache.set_state(line, state), resident, "{ctx}");
                    oracle.set_state(addr, state);
                }
                4 => assert_eq!(
                    cache.invalidate(line).map(as_oracle),
                    oracle.invalidate(addr),
                    "{ctx}"
                ),
                _ if !resident => assert_eq!(
                    cache.fill(line, state, now).map(|e| as_oracle(e.line)),
                    oracle.fill(addr, state, now),
                    "{ctx}"
                ),
                _ => {}
            }
        }
        let stats = |r: StatRegistry| -> Vec<(String, u64)> {
            r.iter().map(|(k, v)| (k.to_owned(), v)).collect()
        };
        assert_eq!(stats(cache.stats()), stats(oracle.stats()), "case {case}");
        let mut lines: Vec<OracleLine> = cache.iter_valid().map(as_oracle).collect();
        let mut expect = oracle.valid_lines();
        lines.sort_by_key(|l| l.addr);
        expect.sort_by_key(|l| l.addr);
        assert_eq!(lines, expect, "case {case}");
        assert!(cache.occupancy() <= geometry.num_lines(), "case {case}");
        let dirty = expect.iter().filter(|l| l.is_dirty()).count() as u64;
        assert_eq!(cache.dirty_count(), dirty, "case {case}");
    }
}

/// Torus routing is symmetric, bounded by the network diameter, and the
/// route length always equals the hop count.
#[test]
fn torus_routing_properties() {
    for case in 0..CASES {
        let mut rng = rng_for(6, case);
        let w = rng.range(2, 6) as usize;
        let h = rng.range(2, 6) as usize;
        let torus = Torus::new(w, h).unwrap();
        let a = NodeId::new(rng.below(36) as usize % (w * h));
        let b = NodeId::new(rng.below(36) as usize % (w * h));
        let d = hop_count(&torus, a, b);
        assert_eq!(d, hop_count(&torus, b, a), "case {case}: {w}x{h}");
        assert!(d as usize <= w / 2 + h / 2, "case {case}");
        let path = route(&torus, a, b).unwrap();
        assert_eq!(path.len() as u32, d + 1, "case {case}");
    }
}

/// Energy breakdowns are physical (finite, non-negative) and additive in
/// the counts.
#[test]
fn energy_is_physical_and_additive() {
    for case in 0..CASES {
        let mut rng = rng_for(7, case);
        let params = TechnologyParams::paper_default();
        let counts = EnergyCounts {
            cycles: rng.range(1, 10_000_000),
            l3_accesses: rng.below(1_000_000),
            dram_reads: rng.below(100_000),
            dram_writes: rng.below(100_000),
            l3_refreshes: rng.below(10_000_000),
            ..EnergyCounts::default()
        };
        for cells in [CellTech::Sram, CellTech::Edram] {
            let b = EnergyBreakdown::compute(&params, cells, &counts);
            assert!(b.is_physical(), "case {case}: {cells}");
            let doubled_counts = counts + counts;
            let d = EnergyBreakdown::compute(&params, cells, &doubled_counts);
            // Dynamic, refresh, DRAM and leakage all scale linearly.
            assert!(
                (d.memory_total() - 2.0 * b.memory_total()).abs() < 1e-9,
                "case {case}: {cells}"
            );
        }
    }
}

/// Workload streams stay within their declared footprint and are
/// deterministic in the seed.
#[test]
fn workload_streams_are_bounded_and_deterministic() {
    for case in 0..CASES {
        let mut rng = rng_for(8, case);
        let seed = rng.next_u64();
        let model = WorkloadModel {
            name: "prop".into(),
            threads: 4,
            refs_per_thread: 400,
            private_bytes_per_thread: 128 * 1024,
            shared_bytes: 256 * 1024,
            hot_bytes_per_thread: 8 * 1024,
            hot_fraction: rng.unit(),
            shared_fraction: rng.unit(),
            write_fraction: rng.unit(),
            mean_gap_cycles: 3,
            stride_run: 4,
        };
        let footprint = model.footprint_bytes();
        let a: Vec<_> = ThreadStream::new(&model, 1, seed).collect();
        let b: Vec<_> = ThreadStream::new(&model, 1, seed).collect();
        assert_eq!(a, b, "case {case}");
        assert_eq!(a.len(), 400, "case {case}");
        assert!(a.iter().all(|r| r.addr.raw() < footprint), "case {case}");
    }
}

/// The per-bank retention sampler is a pure function of (profile, seed,
/// bank index): factors are deterministic, independent of how many banks
/// are sampled alongside (per-bank forked RNG), and always inside the
/// clamp. This is the property that makes sweep results identical across
/// worker counts — every worker derives the same per-bank assignment from
/// the config seed alone.
#[test]
fn retention_factors_are_seeded_per_bank_functions() {
    use refrint_edram::variation::RetentionProfile;
    for case in 0..CASES {
        let mut rng = rng_for(9, case);
        let seed = rng.next_u64();
        let profile = match rng.below(3) {
            0 => RetentionProfile::Uniform,
            1 => RetentionProfile::Normal {
                sigma_pct: 1 + rng.below(30) as u8,
            },
            _ => RetentionProfile::Bimodal {
                weak_pct: 1 + rng.below(99) as u8,
                weak_retention_pct: 30 + rng.below(70) as u8,
            },
        };
        let banks = 1 + rng.below(64) as usize;
        let a = profile.factors_per_mille(seed, banks);
        let b = profile.factors_per_mille(seed, banks);
        assert_eq!(a, b, "case {case}: {profile:?} is not deterministic");
        assert_eq!(a.len(), banks, "case {case}");
        assert!(
            a.iter().all(|&f| (50..=4000).contains(&f)),
            "case {case}: factor outside clamp in {a:?}"
        );
        // Bank b's factor must not depend on the total bank count.
        let wider = profile.factors_per_mille(seed, banks + 17);
        assert_eq!(&wider[..banks], &a[..], "case {case}: {profile:?}");
        if profile == RetentionProfile::Uniform {
            assert!(a.iter().all(|&f| f == 1000), "case {case}");
        }
    }
}

/// A spelled-out uniform profile is the byte-for-byte default: the
/// per-bank retention assignment (and therefore every downstream report)
/// is identical to a config that never mentions a profile.
#[test]
fn spelled_out_uniform_profile_is_the_default_bit_for_bit() {
    use refrint::config::SystemConfig;
    use refrint::RetentionProfile;
    for case in 0..CASES {
        let mut rng = rng_for(10, case);
        let seed = rng.next_u64();
        let plain = SystemConfig::edram_recommended().with_seed(seed);
        let spelled = plain
            .clone()
            .with_retention_profile(RetentionProfile::Uniform);
        assert_eq!(
            format!("{:?}", plain.bank_retentions()),
            format!("{:?}", spelled.bank_retentions()),
            "case {case}"
        );
        assert_eq!(plain.label(), spelled.label(), "case {case}");
    }
}
