//! The oracle's chip-multiprocessor model.
//!
//! [`OracleSystem`] is a from-scratch re-statement of the simulated
//! machine's *semantics* — the same chip (private write-through DL1 and
//! write-back L2 per tile, shared banked L3 with a directory coherence
//! protocol — invalidation-based MESI or update-based Dragon — over a
//! torus, DRAM behind the L3), the same driver rule (the core with
//! the smallest local time goes next), the same refresh policies — built
//! exclusively from the naive components in this crate. It consumes a
//! [`SystemConfig`] and per-thread reference streams and produces a
//! [`SimReport`] that must agree with the optimized simulator field for
//! field; any disagreement is a bug in one of the two.
//!
//! The only shared implementation is deliberate and documented: the
//! workload *inputs* (`refrint-workloads` streams / `refrint-trace`
//! cursors), the configuration and report *types*, and the pure
//! counts → joules conversion ([`EnergyBreakdown::compute_for_chip`]) —
//! so diffing the counts covers the accounting.

use std::fmt;

use refrint::config::SystemConfig;
use refrint::report::SimReport;
use refrint_edram::schedule::LineKind;
use refrint_energy::accounting::EnergyCounts;
use refrint_energy::breakdown::EnergyBreakdown;
use refrint_engine::stats::StatRegistry;
use refrint_engine::time::Cycle;
use refrint_mem::line::MesiState;
use refrint_workloads::generator::ThreadStream;
use refrint_workloads::model::WorkloadModel;
use refrint_workloads::trace::MemRef;

use crate::cache::{OracleCache, OracleLine};
use crate::coherence::{OracleDirectory, OracleRequest};
use crate::dram::OracleDram;
use crate::refresh::OracleRefresh;

/// Why the oracle could not model a configuration or run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// The configuration fails validation (same rules as the simulator).
    InvalidConfig(String),
    /// A trace-driven run failed to decode its input.
    Trace(String),
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::InvalidConfig(reason) => write!(f, "invalid configuration: {reason}"),
            OracleError::Trace(reason) => write!(f, "trace error: {reason}"),
        }
    }
}

impl std::error::Error for OracleError {}

/// A deliberately wrong semantic the oracle can adopt, used to prove the
/// conformance harness catches (and shrinks) real divergences. Production
/// oracles are built without one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Off-by-one in decay settlement: clean lines get one extra refresh
    /// before the policy invalidates them.
    DecayCleanBudgetOffByOne,
    /// Dragon update broadcasts are mis-modelled as MESI-style
    /// invalidations: remote replicas are dropped instead of being
    /// refreshed in place. Invisible under MESI (which never broadcasts
    /// updates), divergent under Dragon.
    DragonUpdateInvalidates,
}

/// A pending eager L3 policy-invalidation event.
#[derive(Debug, Clone, Copy)]
struct PendingInvalidation {
    at: Cycle,
    seq: u64,
    bank: usize,
    line: u64,
    /// The L3 line's touch time the prediction was made from; stale if the
    /// line has been touched since.
    touch: Cycle,
}

/// One tile: private DL1 + L2 and their refresh machinery.
#[derive(Debug, Clone)]
struct Tile {
    dl1: OracleCache,
    l2: OracleCache,
    dl1_refresh: OracleRefresh,
    l2_refresh: OracleRefresh,
}

/// One shared-L3 bank.
#[derive(Debug, Clone)]
struct Bank {
    cache: OracleCache,
    refresh: OracleRefresh,
}

/// Naive link timing: head-flit pipeline latency plus serialisation.
#[derive(Debug, Clone, Copy)]
struct Link {
    per_hop: Cycle,
    flit_bytes: u64,
    control_bytes: u64,
}

impl Link {
    fn flits(&self, payload_bytes: u64) -> u64 {
        if payload_bytes == 0 {
            1
        } else {
            payload_bytes.div_ceil(self.flit_bytes)
        }
    }

    fn latency(&self, hops: u64, payload_bytes: u64) -> Cycle {
        if hops == 0 {
            return Cycle::ZERO;
        }
        self.per_hop * hops + Cycle::new(self.flits(payload_bytes) - 1)
    }
}

/// The residency kind of a line, from the refresh policy's viewpoint.
fn kind_of(line: &OracleLine) -> LineKind {
    if !line.is_valid() {
        LineKind::Invalid
    } else if line.is_dirty() {
        LineKind::Dirty
    } else {
        LineKind::Clean
    }
}

/// The oracle's simulated chip.
#[derive(Debug)]
pub struct OracleSystem {
    cfg: SystemConfig,
    tiles: Vec<Tile>,
    l3: Vec<Bank>,
    dir: OracleDirectory,
    dram: OracleDram,
    link: Link,
    counts: EnergyCounts,
    /// The injected fault, if any (see [`Fault`]).
    fault: Option<Fault>,
    /// Pending eager invalidations, scanned linearly in (time, insertion)
    /// order — no heap.
    pending: Vec<PendingInvalidation>,
    next_seq: u64,
    /// BFS-derived hop counts between torus nodes (`hops[a][b]`).
    hops: Vec<Vec<u64>>,
    line_size: u64,
    line_shift: u32,
    data_flits: u64,
    ctrl_flits: u64,
}

impl OracleSystem {
    /// Builds the oracle for `cfg`.
    ///
    /// # Errors
    ///
    /// [`OracleError::InvalidConfig`] if the configuration fails the shared
    /// validation rules.
    pub fn new(cfg: SystemConfig) -> Result<Self, OracleError> {
        Self::build(cfg, None)
    }

    /// Builds the oracle with an injected [`Fault`] — a validation aid for
    /// proving the harness detects real divergences.
    ///
    /// # Errors
    ///
    /// See [`OracleSystem::new`].
    pub fn with_fault(cfg: SystemConfig, fault: Fault) -> Result<Self, OracleError> {
        Self::build(cfg, Some(fault))
    }

    fn build(cfg: SystemConfig, fault: Option<Fault>) -> Result<Self, OracleError> {
        cfg.validate_typed()
            .map_err(|e| OracleError::InvalidConfig(e.to_string()))?;

        let retention = cfg.retention;
        let cells = cfg.cells;
        let private_policy = cfg.private_cache_policy();
        let mut tiles = Vec::new();
        for _ in 0..cfg.cores {
            tiles.push(Tile {
                dl1: OracleCache::new(
                    cfg.dl1.geometry.num_sets(),
                    usize::from(cfg.dl1.geometry.ways()),
                ),
                l2: OracleCache::new(
                    cfg.l2.geometry.num_sets(),
                    usize::from(cfg.l2.geometry.ways()),
                ),
                dl1_refresh: OracleRefresh::new(
                    &cfg.dl1,
                    private_policy,
                    retention,
                    cells,
                    Cycle::ZERO,
                )?,
                l2_refresh: OracleRefresh::new(
                    &cfg.l2,
                    private_policy,
                    retention,
                    cells,
                    Cycle::ZERO,
                )?,
            });
        }
        // Per-bank retention: the variation profile (if any) stretches or
        // shrinks each bank's period; phases stagger within each bank's own
        // period, exactly like the simulator.
        let bank_retentions = cfg.bank_retentions();
        let mut l3 = Vec::new();
        for (b, &bank_retention) in bank_retentions.iter().enumerate() {
            let phase = Cycle::new(
                (b as u64 * bank_retention.line_retention_cycles().raw()) / cfg.l3_banks as u64,
            );
            l3.push(Bank {
                cache: OracleCache::new(
                    cfg.l3_bank.geometry.num_sets(),
                    usize::from(cfg.l3_bank.geometry.ways()),
                ),
                refresh: OracleRefresh::new(
                    &cfg.l3_bank,
                    cfg.policy,
                    bank_retention,
                    cells,
                    phase,
                )?,
            });
        }
        if let Some(Fault::DecayCleanBudgetOffByOne) = fault {
            for bank in &mut l3 {
                bank.refresh.inject_clean_budget_off_by_one();
            }
            for tile in &mut tiles {
                tile.dl1_refresh.inject_clean_budget_off_by_one();
                tile.l2_refresh.inject_clean_budget_off_by_one();
            }
        }

        let line_size = cfg.dl1.geometry.line_size();
        let link = Link {
            per_hop: cfg.link.router_latency + cfg.link.link_latency,
            flit_bytes: cfg.link.flit_bytes,
            control_bytes: cfg.link.control_bytes,
        };
        Ok(OracleSystem {
            hops: bfs_hop_table(&cfg.torus),
            dir: OracleDirectory::with_protocol(cfg.protocol),
            fault,
            dram: OracleDram::paper_default(),
            counts: EnergyCounts::default(),
            pending: Vec::new(),
            next_seq: 0,
            line_shift: line_size.trailing_zeros(),
            data_flits: link.flits(line_size),
            ctrl_flits: link.flits(link.control_bytes),
            line_size,
            link,
            tiles,
            l3,
            cfg,
        })
    }

    /// Runs an arbitrary workload model, adjusted to the configured core
    /// count and scale exactly as the simulator does.
    ///
    /// # Errors
    ///
    /// See [`OracleSystem::run_streams`].
    pub fn run_model(&mut self, model: &WorkloadModel) -> Result<SimReport, OracleError> {
        let model = self.cfg.adjusted_model(model);
        let streams: Vec<ThreadStream> = (0..model.threads)
            .map(|t| ThreadStream::new(&model, t, self.cfg.seed))
            .collect();
        self.run_streams(&model.name, streams)
    }

    /// Runs one reference stream per core: the core with the smallest local
    /// time is always processed next (ties go to the lowest core index).
    ///
    /// # Errors
    ///
    /// [`OracleError::InvalidConfig`] if the stream count differs from the
    /// core count.
    pub fn run_streams<I>(
        &mut self,
        workload: &str,
        mut streams: Vec<I>,
    ) -> Result<SimReport, OracleError>
    where
        I: Iterator<Item = MemRef>,
    {
        if streams.len() != self.cfg.cores {
            return Err(OracleError::InvalidConfig(format!(
                "{} reference streams supplied for {} cores",
                streams.len(),
                self.cfg.cores
            )));
        }
        let mut core_time = vec![Cycle::ZERO; self.cfg.cores];
        let mut live: Vec<usize> = (0..self.cfg.cores).collect();

        while !live.is_empty() {
            let mut pos = 0;
            let mut best = core_time[live[0]];
            for (p, &c) in live.iter().enumerate().skip(1) {
                if core_time[c] < best {
                    best = core_time[c];
                    pos = p;
                }
            }
            let c = live[pos];
            match streams[c].next() {
                None => {
                    live.remove(pos);
                }
                Some(r) => {
                    let now = core_time[c] + Cycle::new(r.gap_cycles);
                    self.drain_invalidations(now);
                    let instructions = self.instructions_for_gap(r.gap_cycles);
                    self.counts.instructions += instructions;
                    self.counts.il1_accesses += self.fetches_for(instructions);
                    let line = r.addr.raw() >> self.line_shift;
                    let latency = self.access(c, line, r.is_write(), now);
                    core_time[c] = now + latency;
                }
            }
        }

        let end = core_time.iter().copied().max().unwrap_or(Cycle::ZERO);
        self.finalize(end);

        let counts = self.counts;
        Ok(SimReport {
            config_label: self.cfg.label(),
            workload: workload.to_owned(),
            execution_cycles: end.raw(),
            counts,
            breakdown: EnergyBreakdown::compute_for_chip(
                &self.cfg.tech,
                self.cfg.cells,
                &counts,
                self.cfg.cores,
                self.cfg.l3_banks,
            ),
            stats: self.collect_stats(),
        })
    }

    // ----------------------------------------------------------------- //
    // Core timing (re-stated from the model's definition)
    // ----------------------------------------------------------------- //

    fn instructions_for_gap(&self, gap: u64) -> u64 {
        1 + (gap as f64 * self.cfg.core.instructions_per_gap_cycle).round() as u64
    }

    fn fetches_for(&self, instructions: u64) -> u64 {
        (instructions as f64 * self.cfg.core.fetches_per_instruction).round() as u64
    }

    fn observed_latency(&self, l1: Cycle, beyond: Cycle) -> Cycle {
        let hidden = (beyond.raw() as f64 * self.cfg.core.miss_overlap).floor() as u64;
        l1 + Cycle::new(beyond.raw() - hidden)
    }

    fn hop(&self, a: usize, b: usize) -> u64 {
        let nodes = self.hops.len();
        self.hops[a % nodes][b % nodes]
    }

    fn bank_of(&self, line: u64) -> usize {
        (line % self.cfg.l3_banks as u64) as usize
    }

    // ----------------------------------------------------------------- //
    // Access path
    // ----------------------------------------------------------------- //

    /// Resolves one data reference; returns the latency the core observes.
    fn access(&mut self, tile: usize, line: u64, is_write: bool, now: Cycle) -> Cycle {
        self.counts.dl1_accesses += 1;
        let l1_latency =
            self.cfg.dl1.access_latency + self.tiles[tile].dl1_refresh.access_penalty(now, line);
        let mut beyond = Cycle::ZERO;

        let dl1_prev = self.tiles[tile].dl1.lookup_prev(line, now);
        if let Some(l) = &dl1_prev {
            let s = self.tiles[tile]
                .dl1_refresh
                .settle(kind_of(l), l.last_touch, now);
            self.counts.l1_refreshes += s.refreshes;
        }

        let mut upgraded = false;
        if dl1_prev.is_none() {
            beyond += self.lookup_l2(tile, line, is_write, now, &mut upgraded);
            // Write-through DL1: fills are always clean Shared copies and
            // evictions are silent.
            self.tiles[tile].dl1.fill(line, MesiState::Shared, now);
        }

        if is_write {
            // The store also updates the L2 copy; its latency is hidden by
            // the store buffer, but energy and coherence are not.
            self.counts.l2_accesses += 1;
            if let Some(l2_line) = self.tiles[tile].l2.line(line) {
                if !l2_line.state.can_write_silently() && !upgraded {
                    beyond += self.l3_transaction(tile, line, true, now);
                    // The transaction may have settled the line away.
                    if self.tiles[tile].l2.line(line).is_some() {
                        self.tiles[tile].l2.write_hit(line, now);
                    }
                } else {
                    self.tiles[tile].l2.write_hit(line, now);
                }
            }
        }

        self.observed_latency(l1_latency, beyond)
    }

    /// The DL1-miss path: L2 lookup, falling through to the L3 on a miss.
    fn lookup_l2(
        &mut self,
        tile: usize,
        line: u64,
        is_write: bool,
        now: Cycle,
        upgraded: &mut bool,
    ) -> Cycle {
        self.counts.l2_accesses += 1;
        let mut beyond =
            self.cfg.l2.access_latency + self.tiles[tile].l2_refresh.access_penalty(now, line);

        let l2_prev = self.tiles[tile].l2.lookup_prev(line, now);
        if let Some(l) = &l2_prev {
            let s = self.tiles[tile]
                .l2_refresh
                .settle(kind_of(l), l.last_touch, now);
            self.counts.l2_refreshes += s.refreshes;
        }

        match l2_prev.map(|l| l.state) {
            Some(state) => {
                if is_write && !state.can_write_silently() {
                    beyond += self.l3_transaction(tile, line, true, now);
                    *upgraded = true;
                }
            }
            None => {
                beyond += self.l3_transaction(tile, line, is_write, now);
                *upgraded = is_write;
            }
        }
        beyond
    }

    /// An L2 miss (or upgrade): torus to the home bank, directory, DRAM on
    /// an L3 miss, then fill the requester's L2.
    fn l3_transaction(&mut self, tile: usize, line: u64, is_write: bool, now: Cycle) -> Cycle {
        let bank = self.bank_of(line);
        let hops = self.hop(tile, bank);
        self.counts.noc_flit_hops += hops * (self.ctrl_flits + self.data_flits);
        let mut beyond = self.link.latency(hops, self.link.control_bytes)
            + self.link.latency(hops, self.line_size)
            + self.cfg.l3_bank.access_latency
            + self.l3[bank].refresh.access_penalty(now, line);
        self.counts.l3_accesses += 1;

        // Settle the L3 line: the policy may have refreshed, written back,
        // or invalidated it since its last touch.
        let mut present = false;
        if let Some(l) = self.l3[bank].cache.line(line) {
            let s = self.l3[bank].refresh.settle(kind_of(&l), l.last_touch, now);
            self.counts.l3_refreshes += s.refreshes;
            if s.writeback_at.is_some() {
                self.counts.dram_writes += 1;
                self.l3[bank].cache.write_back_resident(line);
            }
            if s.invalidated_at.is_some() {
                self.policy_invalidate_l3(bank, line, now);
            } else {
                present = true;
            }
        }

        if !present {
            let ready = self.dram.read(line, now + beyond);
            beyond = ready - now;
            self.counts.dram_reads += 1;
            if let Some(evicted) = self.l3[bank].cache.fill(line, MesiState::Shared, now) {
                self.handle_l3_eviction(bank, evicted, now);
            }
        } else {
            self.l3[bank].cache.read_hit(line, now);
        }

        // Directory transaction.
        let request = if is_write {
            OracleRequest::Write
        } else {
            OracleRequest::Read
        };
        let outcome = self.dir.access(line, tile, request);

        // Remote invalidations/downgrades are on this request's critical
        // path; the slowest reply bounds the added latency.
        let mut worst_remote = Cycle::ZERO;
        for &holder in &outcome.invalidate {
            let d = self.invalidate_private_copy(holder, bank, line, now);
            worst_remote = worst_remote.max(d);
        }
        if let Some(owner) = outcome.downgrade_owner {
            if !outcome.invalidate.contains(&owner) {
                let d =
                    self.downgrade_private_copy(owner, bank, line, now, outcome.owner_writeback);
                worst_remote = worst_remote.max(d);
            }
        }
        // Dragon update broadcasts: the written word is pushed to every
        // remote replica, which stays a valid clean sharer.
        for &target in &outcome.update {
            let d = if self.fault == Some(Fault::DragonUpdateInvalidates) {
                self.invalidate_private_copy(target, bank, line, now)
            } else {
                self.update_private_copy(target, bank, line, now)
            };
            worst_remote = worst_remote.max(d);
        }
        beyond += worst_remote;

        // Fill (or update) the requester's L2.
        match self.tiles[tile].l2.line(line) {
            Some(_) => {
                self.tiles[tile].l2.set_state(line, outcome.fill_state);
                self.tiles[tile].l2.read_hit(line, now);
            }
            None => {
                if let Some(evicted) = self.tiles[tile].l2.fill(line, outcome.fill_state, now) {
                    self.handle_l2_eviction(tile, evicted, now);
                }
            }
        }

        self.schedule_l3_invalidation(bank, line, now);
        beyond
    }

    /// Invalidates `holder`'s private copies on behalf of the directory;
    /// dirty data is absorbed into the home L3 bank. Returns the round-trip
    /// latency seen from the home bank.
    fn invalidate_private_copy(
        &mut self,
        holder: usize,
        bank: usize,
        line: u64,
        now: Cycle,
    ) -> Cycle {
        let hops = self.hop(bank, holder);
        self.counts.noc_flit_hops += hops * self.ctrl_flits * 2;
        let mut latency = self.link.latency(hops, self.link.control_bytes) * 2;

        self.tiles[holder].dl1.invalidate(line);
        if let Some(victim) = self.tiles[holder].l2.invalidate(line) {
            let s = self.tiles[holder]
                .l2_refresh
                .settle(kind_of(&victim), victim.last_touch, now);
            self.counts.l2_refreshes += s.refreshes;
            if victim.is_dirty() {
                // Dirty data travels back with the acknowledgement and
                // lands in the L3.
                self.counts.noc_flit_hops += hops * self.data_flits;
                latency += self.link.latency(hops, self.line_size);
                self.counts.l3_accesses += 1;
                self.l3[bank].cache.write_resident(line, now);
            }
        }
        latency
    }

    /// Downgrades the owner on behalf of the directory; returns the
    /// round-trip latency. With `writeback_into_l3` (MESI) the owner drops
    /// to Shared and its dirty data lands in the home bank; without it
    /// (Dragon) a dirty owner keeps its data as SharedModified and nothing
    /// touches the L3.
    fn downgrade_private_copy(
        &mut self,
        owner: usize,
        bank: usize,
        line: u64,
        now: Cycle,
        writeback_into_l3: bool,
    ) -> Cycle {
        let hops = self.hop(bank, owner);
        self.counts.noc_flit_hops += hops * (self.ctrl_flits + self.data_flits);
        let latency = self.link.latency(hops, self.link.control_bytes)
            + self.link.latency(hops, self.line_size);

        let was_dirty = self.tiles[owner]
            .l2
            .line(line)
            .is_some_and(|l| l.is_dirty());
        if writeback_into_l3 {
            self.tiles[owner].l2.set_state(line, MesiState::Shared);
            self.tiles[owner].dl1.set_state(line, MesiState::Shared);
            if was_dirty {
                self.counts.l3_accesses += 1;
                self.l3[bank].cache.write_resident(line, now);
            }
        } else {
            let l2_state = if was_dirty {
                MesiState::SharedModified
            } else {
                MesiState::Shared
            };
            self.tiles[owner].l2.set_state(line, l2_state);
            self.tiles[owner].dl1.set_state(line, MesiState::Shared);
        }
        latency
    }

    /// Applies a Dragon update broadcast to `target`'s private copies: the
    /// line is rewritten in place, becoming a clean Shared replica with
    /// fresh cells (the update recharges the eDRAM row). Returns the
    /// round-trip latency.
    fn update_private_copy(&mut self, target: usize, bank: usize, line: u64, now: Cycle) -> Cycle {
        let hops = self.hop(bank, target);
        self.counts.noc_flit_hops += hops * self.ctrl_flits * 2;
        let latency = self.link.latency(hops, self.link.control_bytes) * 2;

        if let Some(prev) = self.tiles[target].l2.line(line) {
            let s = self.tiles[target]
                .l2_refresh
                .settle(kind_of(&prev), prev.last_touch, now);
            self.counts.l2_refreshes += s.refreshes;
            self.tiles[target].l2.apply_update(line, now);
        }
        self.tiles[target].dl1.apply_update(line, now);
        latency
    }

    /// A valid line left the private L2: maintain DL1 inclusion and write
    /// dirty data back to the home bank.
    fn handle_l2_eviction(&mut self, tile: usize, evicted: OracleLine, now: Cycle) {
        let line = evicted.addr;
        let s = self.tiles[tile]
            .l2_refresh
            .settle(kind_of(&evicted), evicted.last_touch, now);
        self.counts.l2_refreshes += s.refreshes;
        self.tiles[tile].dl1.invalidate(line);

        let bank = self.bank_of(line);
        let hops = self.hop(tile, bank);
        if evicted.is_dirty() {
            self.counts.noc_flit_hops += hops * self.data_flits;
            self.counts.l3_accesses += 1;
            if self.l3[bank].cache.line(line).is_some() {
                self.l3[bank].cache.write_resident(line, now);
                self.schedule_l3_invalidation(bank, line, now);
            } else {
                // The L3 copy already decayed; the data goes to memory.
                self.counts.dram_writes += 1;
            }
            let _ = self.dir.access(line, tile, OracleRequest::EvictDirty);
        } else {
            self.counts.noc_flit_hops += hops * self.ctrl_flits;
            let _ = self.dir.access(line, tile, OracleRequest::EvictClean);
        }
    }

    /// A valid line left an L3 bank: settle it, invalidate every private
    /// copy (inclusivity), and write dirty data to DRAM.
    fn handle_l3_eviction(&mut self, bank: usize, evicted: OracleLine, now: Cycle) {
        let line = evicted.addr;
        let s = self.l3[bank]
            .refresh
            .settle(kind_of(&evicted), evicted.last_touch, now);
        self.counts.l3_refreshes += s.refreshes;
        let mut still_dirty = evicted.is_dirty();
        if s.writeback_at.is_some() {
            self.counts.dram_writes += 1;
            still_dirty = false;
        }
        let already_gone = s.invalidated_at.is_some();

        for holder in self.dir.invalidate_all(line) {
            let hops = self.hop(bank, holder);
            self.counts.noc_flit_hops += hops * self.ctrl_flits * 2;
            self.tiles[holder].dl1.invalidate(line);
            if let Some(victim) = self.tiles[holder].l2.invalidate(line) {
                let sv =
                    self.tiles[holder]
                        .l2_refresh
                        .settle(kind_of(&victim), victim.last_touch, now);
                self.counts.l2_refreshes += sv.refreshes;
                if victim.is_dirty() {
                    self.counts.dram_writes += 1;
                    self.counts.noc_flit_hops += hops * self.data_flits;
                }
            }
        }
        if !already_gone && still_dirty {
            self.counts.dram_writes += 1;
        }
    }

    /// A policy-driven invalidation of an L3 line: drop it and, through
    /// inclusion, every private copy.
    fn policy_invalidate_l3(&mut self, bank: usize, line: u64, now: Cycle) {
        if self.l3[bank].cache.invalidate(line).is_none() {
            return;
        }
        for holder in self.dir.invalidate_all(line) {
            let hops = self.hop(bank, holder);
            self.counts.noc_flit_hops += hops * self.ctrl_flits * 2;
            self.tiles[holder].dl1.invalidate(line);
            if let Some(victim) = self.tiles[holder].l2.invalidate(line) {
                let sv =
                    self.tiles[holder]
                        .l2_refresh
                        .settle(kind_of(&victim), victim.last_touch, now);
                self.counts.l2_refreshes += sv.refreshes;
                if victim.is_dirty() {
                    // The backing L3 copy is being dropped, so dirty private
                    // data must go to memory.
                    self.counts.dram_writes += 1;
                    self.counts.noc_flit_hops += hops * self.data_flits;
                }
            }
        }
    }

    /// Predicts when the policy will invalidate the freshly touched L3 line
    /// and queues the eager inclusive invalidation.
    fn schedule_l3_invalidation(&mut self, bank: usize, line: u64, now: Cycle) {
        let Some(l3_line) = self.l3[bank].cache.line(line) else {
            return;
        };
        if let Some(when) = self.l3[bank]
            .refresh
            .invalidation_time(kind_of(&l3_line), now)
        {
            self.pending.push(PendingInvalidation {
                at: when,
                seq: self.next_seq,
                bank,
                line,
                touch: now,
            });
            self.next_seq += 1;
        }
    }

    /// Processes every pending invalidation whose time has come, earliest
    /// (time, insertion order) first.
    fn drain_invalidations(&mut self, now: Cycle) {
        loop {
            let due = self
                .pending
                .iter()
                .enumerate()
                .filter(|(_, p)| p.at <= now)
                .min_by_key(|(_, p)| (p.at, p.seq))
                .map(|(i, _)| i);
            let Some(idx) = due else {
                break;
            };
            let ev = self.pending.remove(idx);
            let Some(current) = self.l3[ev.bank].cache.line(ev.line) else {
                continue;
            };
            if current.last_touch != ev.touch {
                continue; // stale prediction: the line was touched again
            }
            let s = self.l3[ev.bank]
                .refresh
                .settle(kind_of(&current), ev.touch, ev.at);
            self.counts.l3_refreshes += s.refreshes;
            if s.writeback_at.is_some() {
                self.counts.dram_writes += 1;
                self.l3[ev.bank].cache.write_back_resident(ev.line);
            }
            if s.invalidated_at.is_some() {
                self.policy_invalidate_l3(ev.bank, ev.line, ev.at);
            }
        }
    }

    // ----------------------------------------------------------------- //
    // End of run
    // ----------------------------------------------------------------- //

    /// Settles every resident line at the end of the run, flushes dirty
    /// data to DRAM, and adds bulk refresh counts for `All` policies and
    /// the statistically-modelled IL1.
    fn finalize(&mut self, end: Cycle) {
        self.drain_invalidations(end);

        for bank in 0..self.l3.len() {
            for l in self.l3[bank].cache.valid_lines() {
                let s = self.l3[bank].refresh.settle(kind_of(&l), l.last_touch, end);
                self.counts.l3_refreshes += s.refreshes;
                // One DRAM write each: a policy write-back that already
                // happened, or the end-of-run flush of still-dirty data.
                if s.writeback_at.is_some() || (l.is_dirty() && s.invalidated_at.is_none()) {
                    self.counts.dram_writes += 1;
                }
            }
            if self.l3[bank].refresh.is_bulk_all() {
                self.counts.l3_refreshes += self.l3[bank].refresh.bulk_refreshes(end);
            }
        }

        for tile in 0..self.tiles.len() {
            for l in self.tiles[tile].l2.valid_lines() {
                let s = self.tiles[tile]
                    .l2_refresh
                    .settle(kind_of(&l), l.last_touch, end);
                self.counts.l2_refreshes += s.refreshes;
                if l.is_dirty() {
                    self.counts.dram_writes += 1;
                }
            }
            for l in self.tiles[tile].dl1.valid_lines() {
                let s = self.tiles[tile]
                    .dl1_refresh
                    .settle(kind_of(&l), l.last_touch, end);
                self.counts.l1_refreshes += s.refreshes;
            }
            // The IL1 is modelled statistically: under Periodic timing every
            // line is refreshed every period.
            if self.tiles[tile].dl1_refresh.is_edram() && self.cfg.is_periodic() {
                let il1_lines = self.cfg.il1.geometry.num_lines();
                let periods = end.div_span(self.cfg.retention.line_retention_cycles());
                self.counts.l1_refreshes += il1_lines * periods;
            }
        }

        self.counts.cycles = end.raw();
    }

    fn collect_stats(&self) -> StatRegistry {
        let mut out = StatRegistry::new();
        for (t, tile) in self.tiles.iter().enumerate() {
            for (k, v) in tile.dl1.stats().iter() {
                out.add(&format!("dl1.{t}.{k}"), v);
            }
            for (k, v) in tile.l2.stats().iter() {
                out.add(&format!("l2.{t}.{k}"), v);
            }
        }
        for (b, bank) in self.l3.iter().enumerate() {
            for (k, v) in bank.cache.stats().iter() {
                out.add(&format!("l3.{b}.{k}"), v);
            }
        }
        for (k, v) in self.dir.stats().iter() {
            out.add(&format!("coherence.{k}"), v);
        }
        for (k, v) in self.dram.stats().iter() {
            out.add(&format!("dram.{k}"), v);
        }
        let sentry = |d: &OracleRefresh| u64::from(d.is_edram() && !d.is_globally_bursting());
        let sentry_domains = self
            .tiles
            .iter()
            .map(|t| sentry(&t.dl1_refresh) + sentry(&t.l2_refresh))
            .sum::<u64>()
            + self.l3.iter().map(|b| sentry(&b.refresh)).sum::<u64>();
        if sentry_domains > 0 {
            out.add("refresh.refrint_domains", sentry_domains);
        }
        out
    }
}

/// Hop counts between all torus node pairs, derived by breadth-first
/// search over the wraparound links — independent of the closed-form ring
/// distances the optimized router uses.
fn bfs_hop_table(torus: &refrint_noc::topology::Torus) -> Vec<Vec<u64>> {
    let (w, h) = (torus.width(), torus.height());
    let nodes = w * h;
    let neighbours = |n: usize| -> Vec<usize> {
        let (x, y) = (n % w, n / w);
        vec![
            y * w + (x + 1) % w,
            y * w + (x + w - 1) % w,
            ((y + 1) % h) * w + x,
            ((y + h - 1) % h) * w + x,
        ]
    };
    (0..nodes)
        .map(|start| {
            let mut dist = vec![u64::MAX; nodes];
            dist[start] = 0;
            let mut frontier = vec![start];
            while !frontier.is_empty() {
                let mut next = Vec::new();
                for &n in &frontier {
                    for m in neighbours(n) {
                        if dist[m] == u64::MAX {
                            dist[m] = dist[n] + 1;
                            next.push(m);
                        }
                    }
                }
                frontier = next;
            }
            dist
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use refrint::system::CmpSystem;
    use refrint_edram::policy::{DataPolicy, RefreshPolicy, TimePolicy};
    use refrint_noc::routing::hop_count;
    use refrint_noc::topology::{NodeId, Torus};
    use refrint_workloads::apps::AppPreset;

    #[test]
    fn bfs_hops_match_the_closed_form_router() {
        for torus in [Torus::paper_4x4(), Torus::new(2, 3).unwrap()] {
            let table = bfs_hop_table(&torus);
            for (a, row) in table.iter().enumerate() {
                for (b, &hops) in row.iter().enumerate() {
                    assert_eq!(
                        hops,
                        u64::from(hop_count(&torus, NodeId::new(a), NodeId::new(b))),
                        "{a} -> {b}"
                    );
                }
            }
        }
    }

    fn agree(cfg: SystemConfig, app: AppPreset) {
        let oracle = OracleSystem::new(cfg.clone())
            .unwrap()
            .run_model(&app.model())
            .unwrap();
        let sim = CmpSystem::new(cfg).unwrap().run_model(&app.model());
        let diffs = crate::diff::diff_reports(&oracle, &sim);
        assert!(diffs.is_empty(), "oracle vs simulator: {diffs:?}");
    }

    #[test]
    fn oracle_matches_simulator_on_sram() {
        agree(
            SystemConfig::sram_baseline().with_cores(2).with_scale(700),
            AppPreset::Lu,
        );
    }

    #[test]
    fn oracle_matches_simulator_on_recommended_edram() {
        agree(
            SystemConfig::edram_recommended()
                .with_cores(2)
                .with_scale(700),
            AppPreset::Barnes,
        );
    }

    #[test]
    fn oracle_matches_simulator_on_periodic_all() {
        agree(
            SystemConfig::edram_baseline().with_cores(4).with_scale(500),
            AppPreset::Fft,
        );
    }

    #[test]
    fn oracle_matches_simulator_on_aggressive_writeback() {
        agree(
            SystemConfig::edram_recommended()
                .with_policy(RefreshPolicy::new(
                    TimePolicy::Refrint,
                    DataPolicy::write_back(0, 0),
                ))
                .with_cores(2)
                .with_scale(600),
            AppPreset::Radix,
        );
    }

    #[test]
    fn injected_fault_diverges_from_the_simulator() {
        // Retention just above the sentry margin, so the short run spans
        // many refresh opportunities and the budgets actually expire.
        let retention = refrint_edram::retention::RetentionConfig::new(
            refrint_engine::time::SimDuration::from_nanos(17_000),
            refrint_engine::time::Freq::gigahertz(1),
        )
        .unwrap();
        let cfg = SystemConfig::edram_recommended()
            .with_policy(RefreshPolicy::new(
                TimePolicy::Refrint,
                DataPolicy::write_back(1, 1),
            ))
            .with_retention(retention)
            .with_cores(2)
            .with_scale(800);
        let oracle = OracleSystem::with_fault(cfg.clone(), Fault::DecayCleanBudgetOffByOne)
            .unwrap()
            .run_model(&AppPreset::Lu.model())
            .unwrap();
        let sim = CmpSystem::new(cfg)
            .unwrap()
            .run_model(&AppPreset::Lu.model());
        assert!(
            !crate::diff::diff_reports(&oracle, &sim).is_empty(),
            "the injected off-by-one must be visible"
        );
    }

    #[test]
    fn oracle_matches_simulator_on_dragon() {
        // Scale/seed chosen so the run actually broadcasts updates (the
        // simulator's own Dragon test asserts `updates_sent > 0` here).
        agree(
            SystemConfig::edram_recommended()
                .with_protocol(refrint::CoherenceProtocol::Dragon)
                .with_cores(4)
                .with_scale(3_000)
                .with_seed(11),
            AppPreset::Radix,
        );
    }

    #[test]
    fn oracle_matches_simulator_on_dragon_sram() {
        agree(
            SystemConfig::sram_baseline()
                .with_protocol(refrint::CoherenceProtocol::Dragon)
                .with_cores(2)
                .with_scale(600),
            AppPreset::Lu,
        );
    }

    #[test]
    fn oracle_matches_simulator_on_retention_profiles() {
        agree(
            SystemConfig::edram_recommended()
                .with_retention_profile(refrint::RetentionProfile::Normal { sigma_pct: 15 })
                .with_cores(2)
                .with_scale(600),
            AppPreset::Fft,
        );
        agree(
            SystemConfig::edram_recommended()
                .with_retention_profile(refrint::RetentionProfile::Bimodal {
                    weak_pct: 50,
                    weak_retention_pct: 40,
                })
                .with_protocol(refrint::CoherenceProtocol::Dragon)
                .with_cores(2)
                .with_scale(600),
            AppPreset::Barnes,
        );
    }

    #[test]
    fn dragon_fault_diverges_under_dragon_only() {
        let cfg = SystemConfig::edram_recommended()
            .with_protocol(refrint::CoherenceProtocol::Dragon)
            .with_cores(4)
            .with_scale(3_000)
            .with_seed(11);
        let oracle = OracleSystem::with_fault(cfg.clone(), Fault::DragonUpdateInvalidates)
            .unwrap()
            .run_model(&AppPreset::Radix.model())
            .unwrap();
        let sim = CmpSystem::new(cfg)
            .unwrap()
            .run_model(&AppPreset::Radix.model());
        assert!(
            !crate::diff::diff_reports(&oracle, &sim).is_empty(),
            "treating Dragon updates as invalidations must be visible"
        );

        // The same fault is invisible under MESI: no update broadcasts.
        let mesi = SystemConfig::edram_recommended()
            .with_cores(4)
            .with_scale(3_000)
            .with_seed(11);
        let oracle = OracleSystem::with_fault(mesi.clone(), Fault::DragonUpdateInvalidates)
            .unwrap()
            .run_model(&AppPreset::Radix.model())
            .unwrap();
        let sim = CmpSystem::new(mesi)
            .unwrap()
            .run_model(&AppPreset::Radix.model());
        assert!(crate::diff::diff_reports(&oracle, &sim).is_empty());
    }
}
