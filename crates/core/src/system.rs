//! The chip-multiprocessor system simulator.
//!
//! [`CmpSystem`] assembles the paper's 16-core chip (private DL1/L2 per tile,
//! shared 16-bank L3 with a directory protocol — MESI by default, update-
//! based Dragon as an experiment axis — over a 4×4 torus, DRAM behind the
//! L3), runs deterministic synthetic workloads through it, and produces
//! [`SimReport`]s with execution time, event counts and energy.
//!
//! ## Simulation model
//!
//! Cores advance independently; the driver always processes the reference of
//! the core with the smallest local time, so coherence interleaving is
//! time-ordered. Each data reference is resolved transactionally through
//! DL1 → L2 → L3 → DRAM, with directory-induced invalidations and downgrades
//! applied immediately and their message latencies added to the requester's
//! critical path.
//!
//! Refresh behaviour is evaluated with the lazy decay-schedule algebra
//! (see `refrint-edram`): each time a line is touched, evicted, invalidated
//! or flushed, everything the refresh engine did to it since its previous
//! touch is settled in O(1). Policy-driven L3 invalidations additionally use
//! an *eager event queue* so that inclusive invalidations reach the private
//! caches at the right time — this is what makes aggressive policies hurt
//! low-visibility (Class 3) applications, as the paper describes.

use refrint_coherence::directory::{DirectoryArray, DirectoryEntry};
use refrint_coherence::protocol::{CoherenceEngine, CoreRequest};
use refrint_energy::accounting::EnergyCounts;
use refrint_energy::breakdown::EnergyBreakdown;
use refrint_engine::event::EventQueue;
use refrint_engine::stats::StatRegistry;
use refrint_engine::time::Cycle;
use refrint_mem::addr::LineAddr;
use refrint_mem::cache::Cache;
use refrint_mem::dram::{DramModel, DramOp};
use refrint_mem::line::{CacheLine, MesiState};
use refrint_noc::routing::hop_count;
use refrint_noc::topology::{NodeId, Torus};
use refrint_obs::{ObsConfig, ObsSummary, Recorder, Subsystem};
use refrint_workloads::generator::ThreadStream;
use refrint_workloads::model::WorkloadModel;

use crate::config::SystemConfig;
use crate::error::RefrintError;
use crate::hierarchy::{line_kind, L3Bank, RefreshDomain, Tile};
use crate::report::SimReport;

/// Why a tile's request reaches its home L3 bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L3Request {
    /// A read that missed in the tile's L2.
    ReadMiss,
    /// A write that missed in the tile's L2.
    WriteMiss,
    /// A write to a line the tile's L2 holds without write permission.
    Upgrade,
}

/// A pending policy-driven invalidation of an L3 line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingInvalidation {
    bank: usize,
    line: LineAddr,
    /// The touch timestamp the prediction was made from; if the line has
    /// been touched since, the event is stale and is skipped.
    touch: Cycle,
}

/// The simulated chip multiprocessor.
#[derive(Debug)]
pub struct CmpSystem {
    cfg: SystemConfig,
    tiles: Vec<Tile>,
    l3: Vec<L3Bank>,
    protocol: CoherenceEngine,
    dram: DramModel,
    torus: Torus,
    counts: EnergyCounts,
    invalidations: EventQueue<PendingInvalidation>,
    /// Precomputed torus hop counts between node pairs (`a * nodes + b`),
    /// so per-message accounting is a table load instead of route math.
    hop_table: Vec<u32>,
    line_size: u64,
    data_flits: u64,
    ctrl_flits: u64,
    /// Reusable snapshot buffer for the end-of-run settlement sweeps (and
    /// any other path that needs a residency snapshot while mutating the
    /// system), so those paths never collect a fresh `Vec` per cache.
    scratch_lines: Vec<CacheLine>,
    /// The span recorder. Disabled by default (one branch per hook); when
    /// enabled it attributes latency contributions to subsystems without
    /// ever reading or writing simulated state, so reports stay
    /// byte-identical with observability on or off.
    obs: Recorder,
}

impl CmpSystem {
    /// Builds a system from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RefrintError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn new(cfg: SystemConfig) -> Result<Self, RefrintError> {
        cfg.validate()?;
        let retention = cfg.retention;
        let cells = cfg.cells;
        let private_policy = cfg.private_cache_policy();

        let tiles = (0..cfg.cores)
            .map(|t| Tile {
                dl1: Cache::new(&format!("dl1.{t}"), cfg.dl1.geometry),
                l2: Cache::new(&format!("l2.{t}"), cfg.l2.geometry),
                dl1_refresh: RefreshDomain::new(
                    &cfg.dl1,
                    private_policy,
                    retention,
                    cells,
                    Cycle::ZERO,
                ),
                l2_refresh: RefreshDomain::new(
                    &cfg.l2,
                    private_policy,
                    retention,
                    cells,
                    Cycle::ZERO,
                ),
            })
            .collect();

        // Per-bank retention: nominal everywhere under the uniform profile,
        // sampled per bank otherwise.
        let bank_retentions = cfg.bank_retentions();
        let l3 = (0..cfg.l3_banks)
            .map(|b| {
                let bank_retention = bank_retentions[b];
                // Stagger periodic refresh phases across banks so bursts do
                // not line up chip-wide (each bank phases within its own
                // retention period).
                let phase = Cycle::new(
                    (b as u64 * bank_retention.line_retention_cycles().raw()) / cfg.l3_banks as u64,
                );
                let refresh =
                    RefreshDomain::new(&cfg.l3_bank, cfg.policy, bank_retention, cells, phase);
                let geometry = cfg.l3_bank.geometry;
                L3Bank {
                    cache: Cache::new(&format!("l3.{b}"), geometry),
                    dir: DirectoryArray::new(
                        geometry.num_sets() as usize,
                        usize::from(geometry.ways()),
                    ),
                    refresh,
                }
            })
            .collect();

        let line_size = cfg.dl1.geometry.line_size();
        let data_flits = cfg.link.flits_for(line_size);
        let ctrl_flits = cfg.link.flits_for(cfg.link.control_bytes);
        let nodes = cfg.torus.num_nodes();
        let hop_table = (0..nodes * nodes)
            .map(|i| hop_count(&cfg.torus, NodeId::new(i / nodes), NodeId::new(i % nodes)))
            .collect();

        Ok(CmpSystem {
            protocol: CoherenceEngine::new(cfg.protocol, cfg.cores),
            dram: DramModel::paper_default(),
            torus: cfg.torus,
            tiles,
            l3,
            counts: EnergyCounts::default(),
            invalidations: EventQueue::new(),
            hop_table,
            line_size,
            data_flits,
            ctrl_flits,
            scratch_lines: Vec::new(),
            obs: Recorder::disabled(),
            cfg,
        })
    }

    /// The configuration this system was built from.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Turns on span recording with the given sampling configuration.
    ///
    /// Observability never perturbs the simulation — the recorder only
    /// accumulates attribution on the side — so enabling it changes no
    /// report field.
    pub fn enable_observability(&mut self, cfg: ObsConfig) {
        self.obs = Recorder::enabled(cfg);
    }

    /// Summarises everything the recorder collected (empty totals when
    /// observability was never enabled).
    #[must_use]
    pub fn obs_summary(&self) -> ObsSummary {
        self.obs.summary()
    }

    /// Runs an arbitrary workload model (its thread count is adjusted to the
    /// configured core count, and its length to the configured scale).
    pub fn run_model(&mut self, model: &WorkloadModel) -> SimReport {
        let model = self.cfg.adjusted_model(model);
        let streams: Vec<ThreadStream> = (0..model.threads)
            .map(|t| ThreadStream::new(&model, t, self.cfg.seed))
            .collect();
        self.run_streams(&model.name, streams)
            .expect("the adjusted model has one stream per core")
    }

    /// Runs one reference stream per core through the system — the common
    /// driver behind both synthetic generation ([`CmpSystem::run_model`])
    /// and trace replay. Cores advance independently; the reference of the
    /// core with the smallest local time is always processed next, so the
    /// interleaving depends only on the streams' contents.
    ///
    /// # Errors
    ///
    /// Returns [`RefrintError::InvalidConfig`] if the stream count differs
    /// from the configured core count.
    pub fn run_streams<I>(
        &mut self,
        workload: &str,
        streams: Vec<I>,
    ) -> Result<SimReport, RefrintError>
    where
        I: Iterator<Item = refrint_workloads::trace::MemRef>,
    {
        if streams.len() != self.cfg.cores {
            return Err(RefrintError::InvalidConfig {
                reason: format!(
                    "{} reference streams supplied for {} cores (one stream per core required)",
                    streams.len(),
                    self.cfg.cores
                ),
            });
        }
        let workload_name = workload.to_owned();
        let line_shift = self.line_size.trailing_zeros();
        let mut streams = streams;
        let mut core_time = vec![Cycle::ZERO; self.cfg.cores];
        // Ascending list of cores whose streams are not exhausted; finished
        // cores drop out instead of being re-skipped on every dispatch.
        let mut live: Vec<usize> = (0..self.cfg.cores).collect();

        while !live.is_empty() {
            // Pick the live core with the smallest local time (ties go to
            // the lowest core index, since `live` stays ascending).
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
                    let instructions = self.cfg.core.instructions_for_gap(r.gap_cycles);
                    self.counts.instructions += instructions;
                    self.counts.il1_accesses += self.cfg.core.fetches_for(instructions);
                    // line_size is validated as a power of two at build time;
                    // shift directly instead of re-validating per reference.
                    let line = LineAddr::new(r.addr.raw() >> line_shift);
                    let latency = self.access(c, line, r.is_write(), now);
                    core_time[c] = now + latency;
                }
            }
        }

        let end = core_time.iter().copied().max().unwrap_or(Cycle::ZERO);
        self.finalize(end);

        let counts = self.counts;
        let breakdown = EnergyBreakdown::compute_for_chip(
            &self.cfg.tech,
            self.cfg.cells,
            &counts,
            self.cfg.cores,
            self.cfg.l3_banks,
        );
        Ok(SimReport {
            config_label: self.cfg.label(),
            workload: workload_name,
            execution_cycles: end.raw(),
            counts,
            breakdown,
            stats: self.collect_stats(),
        })
    }

    // ----------------------------------------------------------------- //
    // Access path
    // ----------------------------------------------------------------- //

    fn hops(&self, a: usize, b: usize) -> u32 {
        let nodes = self.torus.num_nodes();
        self.hop_table[(a % nodes) * nodes + (b % nodes)]
    }

    /// Resolves one data reference and returns the latency the core observes.
    fn access(&mut self, tile: usize, line: LineAddr, is_write: bool, now: Cycle) -> Cycle {
        self.counts.dl1_accesses += 1;
        let l1_stall = self.tiles[tile].dl1_refresh.access_penalty(now, line.raw());
        let l1_latency = self.cfg.dl1.access_latency + l1_stall;
        if self.obs.is_enabled() {
            self.obs.record(
                Subsystem::Cache,
                "dl1.access",
                now.raw(),
                self.cfg.dl1.access_latency.raw(),
                tile as u64,
            );
            if l1_stall > Cycle::ZERO {
                self.obs.record(
                    Subsystem::Refresh,
                    "dl1.stall",
                    now.raw(),
                    l1_stall.raw(),
                    tile as u64,
                );
            }
        }
        let mut beyond = Cycle::ZERO;

        // One tag search resolves the access and hands back the pre-touch
        // line so its residency can be settled (Valid policy: refresh
        // charges only).
        let dl1_prev = self.tiles[tile].dl1.lookup_prev(line, now);
        if let Some((l, _)) = &dl1_prev {
            let s = self.tiles[tile]
                .dl1_refresh
                .settle(line_kind(l), l.meta.last_touch, now);
            self.counts.l1_refreshes += s.refreshes;
        }

        let mut upgraded = false;
        if dl1_prev.is_none() {
            beyond += self.lookup_l2(tile, line, is_write, now, &mut upgraded);
            // Fill the DL1 (write-through, so DL1 lines are always clean and
            // evictions are silent).
            self.tiles[tile].dl1.fill(line, MesiState::Shared, now);
        }

        if is_write {
            // Write-through: the store also updates the L2 copy. Its latency
            // is hidden by the store buffer, but energy and coherence are not.
            self.counts.l2_accesses += 1;
            if let Some(l2_line) = self.tiles[tile].l2.line(line) {
                if !l2_line.state.can_write_silently() && !upgraded {
                    beyond += self.l3_transaction(tile, line, L3Request::Upgrade, now);
                    // The transaction may have settled the line away (a
                    // decayed L3 copy triggers an inclusive invalidation),
                    // so re-check before applying the store.
                    if self.tiles[tile].l2.line(line).is_some() {
                        self.tiles[tile].l2.write_hit(line, now);
                    }
                } else {
                    self.tiles[tile].l2.write_hit(line, now);
                }
            }
        }

        self.cfg.core.observed_latency(l1_latency, beyond)
    }

    /// The DL1-miss path: L2 lookup, falling through to the L3 on a miss.
    /// Returns latency beyond the L1 and reports whether a write upgrade was
    /// already performed.
    fn lookup_l2(
        &mut self,
        tile: usize,
        line: LineAddr,
        is_write: bool,
        now: Cycle,
        upgraded: &mut bool,
    ) -> Cycle {
        self.counts.l2_accesses += 1;
        let l2_stall = self.tiles[tile].l2_refresh.access_penalty(now, line.raw());
        let mut beyond = self.cfg.l2.access_latency + l2_stall;
        if self.obs.is_enabled() {
            self.obs.record(
                Subsystem::Cache,
                "l2.lookup",
                now.raw(),
                self.cfg.l2.access_latency.raw(),
                tile as u64,
            );
            if l2_stall > Cycle::ZERO {
                self.obs.record(
                    Subsystem::Refresh,
                    "l2.stall",
                    now.raw(),
                    l2_stall.raw(),
                    tile as u64,
                );
            }
        }

        let l2_prev = self.tiles[tile].l2.lookup_prev(line, now);
        if let Some((l, _)) = &l2_prev {
            let s = self.tiles[tile]
                .l2_refresh
                .settle(line_kind(l), l.meta.last_touch, now);
            self.counts.l2_refreshes += s.refreshes;
        }

        let l2_state = l2_prev.map(|(_, o)| o.state);
        match l2_state {
            Some(state) => {
                if is_write && !state.can_write_silently() {
                    beyond += self.l3_transaction(tile, line, L3Request::Upgrade, now);
                    *upgraded = true;
                }
            }
            None => {
                let request = if is_write {
                    L3Request::WriteMiss
                } else {
                    L3Request::ReadMiss
                };
                beyond += self.l3_transaction(tile, line, request, now);
                *upgraded = is_write;
            }
        }
        beyond
    }

    /// An L2 miss (or upgrade): go to the line's home L3 bank through the
    /// torus, consult the directory, fetch from DRAM if needed, and fill the
    /// requester's L2. Returns the added latency.
    ///
    /// One probe of the bank finds (or one fill places) the line; its slot
    /// then locates the line's way and its directory entry for the rest of
    /// the transaction. Nothing below moves the line to another slot: the
    /// remote actions and the requester's L2 fill only update or
    /// write back L3 lines, never fill or invalidate one.
    fn l3_transaction(
        &mut self,
        tile: usize,
        line: LineAddr,
        request: L3Request,
        now: Cycle,
    ) -> Cycle {
        let bank = line.bank(self.cfg.l3_banks);
        let hops = u64::from(self.hops(tile, bank));
        self.counts.noc_flit_hops += hops * (self.ctrl_flits + self.data_flits);
        let noc_latency = self
            .cfg
            .link
            .message_latency(hops as u32, self.cfg.link.control_bytes)
            + self.cfg.link.message_latency(hops as u32, self.line_size);
        let l3_stall = self.l3[bank].refresh.access_penalty(now, line.raw());
        let mut beyond = noc_latency + self.cfg.l3_bank.access_latency + l3_stall;
        self.counts.l3_accesses += 1;
        if self.obs.is_enabled() {
            self.obs.record(
                Subsystem::Noc,
                "l3.request",
                now.raw(),
                noc_latency.raw(),
                hops,
            );
            self.obs.record(
                Subsystem::Cache,
                "l3.access",
                now.raw(),
                self.cfg.l3_bank.access_latency.raw(),
                bank as u64,
            );
            if l3_stall > Cycle::ZERO {
                self.obs.record(
                    Subsystem::Refresh,
                    "l3.stall",
                    now.raw(),
                    l3_stall.raw(),
                    bank as u64,
                );
            }
        }

        // Settle the L3 line: it may have been refreshed, written back, or
        // invalidated by the policy since its last touch.
        let mut present = None;
        if let Some(found) = self.l3[bank].cache.probe(line) {
            let l = self.l3_line(bank, found.slot);
            let s = self.l3[bank]
                .refresh
                .settle(line_kind(&l), l.meta.last_touch, now);
            self.counts.l3_refreshes += s.refreshes;
            if s.writeback_at.is_some() {
                self.counts.dram_writes += 1;
                self.l3[bank]
                    .cache
                    .update_at(found.slot, CacheLine::write_back);
            }
            if s.invalidated_at.is_some() {
                self.policy_invalidate_l3(bank, found.slot, now);
            } else {
                present = Some(found.slot);
            }
        }

        let slot = if let Some(slot) = present {
            self.l3[bank].cache.read_hit_at(slot, now);
            slot
        } else {
            // Fetch the line from DRAM.
            let ready = self.dram.access(line.raw(), DramOp::Read, now + beyond);
            if self.obs.is_enabled() {
                let dram_latency = (ready - now).raw().saturating_sub(beyond.raw());
                self.obs.record(
                    Subsystem::Dram,
                    "dram.fetch",
                    now.raw(),
                    dram_latency,
                    bank as u64,
                );
            }
            beyond = ready - now;
            self.counts.dram_reads += 1;
            let (slot, evicted) = self.l3[bank].cache.fill_slot(line, MesiState::Shared, now);
            match evicted {
                // The victim's entry is still in the slot it leaves.
                Some(evicted) => self.handle_l3_eviction(bank, slot, evicted, now),
                None => debug_assert_eq!(
                    self.l3[bank].dir.get(slot),
                    DirectoryEntry::Uncached,
                    "a free way holds no directory entry"
                ),
            }
            slot
        };

        // Directory transaction.
        let coherence = if request == L3Request::ReadMiss {
            CoreRequest::Read
        } else {
            CoreRequest::Write
        };
        let protocol = &mut self.protocol;
        let outcome = self.l3[bank]
            .dir
            .update(slot, |entry| protocol.resolve(entry, tile, coherence));

        // Invalidate or downgrade remote holders; their replies are on the
        // critical path of this request.
        let mut worst_remote = Cycle::ZERO;
        let mut remote_messages = 0u64;
        for holder in outcome.invalidate.iter() {
            let d = self.invalidate_private_copy(holder, bank, slot, line, now);
            worst_remote = worst_remote.max(d);
            remote_messages += 1;
        }
        if let Some(owner) = outcome.downgrade_owner {
            if !outcome.invalidate.contains(owner) {
                let d = self.downgrade_private_copy(
                    owner,
                    bank,
                    slot,
                    line,
                    now,
                    outcome.owner_writeback,
                );
                worst_remote = worst_remote.max(d);
                remote_messages += 1;
            } else if outcome.owner_writeback {
                // The owner's dirty data lands in the L3 as part of the
                // invalidation handled above.
            }
        }
        // Dragon update broadcasts: the written word is pushed to every
        // remote replica, which stays a valid clean sharer.
        for target in outcome.update.iter() {
            let d = self.update_private_copy(target, bank, line, now);
            worst_remote = worst_remote.max(d);
            remote_messages += 1;
        }
        if worst_remote > Cycle::ZERO {
            self.obs.record(
                Subsystem::Coherence,
                "remote.stall",
                now.raw(),
                worst_remote.raw(),
                remote_messages,
            );
        }
        beyond += worst_remote;

        // Update the requester's L2 copy, or fill it. A miss cannot have
        // brought the line into the L2; an upgrade keeps its copy unless a
        // decayed L3 copy took it away above.
        if request == L3Request::Upgrade && self.tiles[tile].l2.line(line).is_some() {
            self.tiles[tile].l2.set_state(line, outcome.fill_state);
            self.tiles[tile].l2.read_hit(line, now);
        } else if let Some(evicted) = self.tiles[tile].l2.fill(line, outcome.fill_state, now) {
            self.handle_l2_eviction(tile, evicted, now);
        }

        // Predict when the policy will invalidate this (now freshly touched)
        // L3 line, so the inclusive invalidation happens at the right time.
        self.schedule_l3_invalidation(bank, slot, now);
        beyond
    }

    /// The line in `slot` of L3 bank `bank`, which the caller knows holds
    /// one.
    fn l3_line(&self, bank: usize, slot: usize) -> CacheLine {
        self.l3[bank]
            .cache
            .line_at(slot)
            .expect("an L3 line stays in its slot for the whole transaction")
    }

    /// Invalidates `holder`'s private copies of `line` on behalf of the
    /// directory; a dirty copy's data lands in the line's L3 `slot`.
    /// Returns the round-trip latency seen from the home bank.
    fn invalidate_private_copy(
        &mut self,
        holder: usize,
        bank: usize,
        slot: usize,
        line: LineAddr,
        now: Cycle,
    ) -> Cycle {
        let hops = self.hops(bank, holder);
        self.counts.noc_flit_hops += u64::from(hops) * self.ctrl_flits * 2;
        let mut latency = self
            .cfg
            .link
            .message_latency(hops, self.cfg.link.control_bytes)
            * 2;

        self.tiles[holder].dl1.invalidate(line);
        if let Some(victim) = self.tiles[holder].l2.invalidate(line) {
            // Settle the copy's refresh history before it disappears.
            let s = self.tiles[holder].l2_refresh.settle(
                line_kind(&victim),
                victim.meta.last_touch,
                now,
            );
            self.counts.l2_refreshes += s.refreshes;
            if victim.is_dirty() {
                // Dirty data travels back with the acknowledgement.
                self.counts.noc_flit_hops += u64::from(hops) * self.data_flits;
                latency += self.cfg.link.message_latency(hops, self.line_size);
                self.counts.l3_accesses += 1;
                self.l3[bank].cache.update_at(slot, |l| l.write(now));
            }
        }
        latency
    }

    /// Downgrades the owner of `line` on behalf of the directory; returns
    /// the round-trip latency. With `writeback_into_l3` (MESI) the owner's
    /// dirty data lands in the line's L3 `slot` and the owner becomes a clean
    /// sharer. Without it (Dragon) the data is forwarded cache-to-cache
    /// only: a dirty owner keeps its dirty copy in `Sm` and remains
    /// responsible for the eventual write-back.
    fn downgrade_private_copy(
        &mut self,
        owner: usize,
        bank: usize,
        slot: usize,
        line: LineAddr,
        now: Cycle,
        writeback_into_l3: bool,
    ) -> Cycle {
        let hops = self.hops(bank, owner);
        self.counts.noc_flit_hops += u64::from(hops) * (self.ctrl_flits + self.data_flits);
        let latency = self
            .cfg
            .link
            .message_latency(hops, self.cfg.link.control_bytes)
            + self.cfg.link.message_latency(hops, self.line_size);

        let was_dirty = self.tiles[owner]
            .l2
            .line(line)
            .map(|l| l.is_dirty())
            .unwrap_or(false);
        if writeback_into_l3 {
            self.tiles[owner].l2.set_state(line, MesiState::Shared);
            self.tiles[owner].dl1.set_state(line, MesiState::Shared);
            if was_dirty {
                self.counts.l3_accesses += 1;
                self.l3[bank].cache.update_at(slot, |l| l.write(now));
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

    /// Applies a Dragon update to `target`'s private copies of `line`: the
    /// written word is merged in place, so the copies stay valid clean
    /// sharers (a dirty old owner hands its data to the writer cache-to-
    /// cache, with no L3 or DRAM traffic). Rewriting the cells recharges
    /// the line, so its refresh history is settled and its touch reset.
    /// Returns the round-trip latency seen from the home bank.
    fn update_private_copy(
        &mut self,
        target: usize,
        bank: usize,
        line: LineAddr,
        now: Cycle,
    ) -> Cycle {
        let hops = self.hops(bank, target);
        self.counts.noc_flit_hops += u64::from(hops) * self.ctrl_flits * 2;
        let latency = self
            .cfg
            .link
            .message_latency(hops, self.cfg.link.control_bytes)
            * 2;

        if let Some(prev) = self.tiles[target].l2.line(line) {
            let s =
                self.tiles[target]
                    .l2_refresh
                    .settle(line_kind(&prev), prev.meta.last_touch, now);
            self.counts.l2_refreshes += s.refreshes;
            self.tiles[target].l2.update(line, |l| replicate(l, now));
        }
        self.tiles[target].dl1.update(line, |l| replicate(l, now));
        latency
    }

    /// Handles the eviction of a (valid) line from a private L2: maintain
    /// DL1 inclusion and write dirty data back to the home L3 bank.
    fn handle_l2_eviction(
        &mut self,
        tile: usize,
        evicted: refrint_mem::cache::EvictedLine,
        now: Cycle,
    ) {
        let line = evicted.line.addr;
        let s = self.tiles[tile].l2_refresh.settle(
            line_kind(&evicted.line),
            evicted.line.meta.last_touch,
            now,
        );
        self.counts.l2_refreshes += s.refreshes;
        self.tiles[tile].dl1.invalidate(line);

        let bank = line.bank(self.cfg.l3_banks);
        let hops = self.hops(tile, bank);
        // Inclusion: the L3 drops a line only after invalidating every
        // holder's copy, so an L2 line always has its L3 copy.
        let slot = self.l3[bank]
            .cache
            .probe(line)
            .expect("an L2 line is resident in its L3 bank")
            .slot;
        let request = if evicted.needs_writeback() {
            self.counts.noc_flit_hops += u64::from(hops) * self.data_flits;
            self.counts.l3_accesses += 1;
            self.l3[bank].cache.update_at(slot, |l| l.write(now));
            self.schedule_l3_invalidation(bank, slot, now);
            CoreRequest::EvictDirty
        } else {
            self.counts.noc_flit_hops += u64::from(hops) * self.ctrl_flits;
            CoreRequest::EvictClean
        };
        let protocol = &mut self.protocol;
        self.l3[bank]
            .dir
            .update(slot, |entry| protocol.resolve(entry, tile, request));
    }

    /// Handles the eviction of a valid line from `slot` of an L3 bank, whose
    /// directory entry is still the evicted line's: settle its refresh
    /// history, invalidate every private copy (inclusivity) and write dirty
    /// data to DRAM.
    fn handle_l3_eviction(
        &mut self,
        bank: usize,
        slot: usize,
        evicted: refrint_mem::cache::EvictedLine,
        now: Cycle,
    ) {
        let line = evicted.line.addr;
        let s = self.l3[bank].refresh.settle(
            line_kind(&evicted.line),
            evicted.line.meta.last_touch,
            now,
        );
        self.counts.l3_refreshes += s.refreshes;
        // If the policy already wrote the line back (or invalidated it), the
        // eviction costs less.
        let mut still_dirty = evicted.line.is_dirty();
        if s.writeback_at.is_some() {
            self.counts.dram_writes += 1;
            still_dirty = false;
        }
        let already_gone = s.invalidated_at.is_some();

        self.invalidate_holders(bank, slot, line, now);
        if !already_gone && still_dirty {
            self.counts.dram_writes += 1;
        }
    }

    /// A policy-driven invalidation of the L3 line in `slot` (its refresh
    /// budget ran out): invalidate it and, through inclusion, every private
    /// copy.
    fn policy_invalidate_l3(&mut self, bank: usize, slot: usize, now: Cycle) {
        let removed = self.l3[bank].cache.invalidate_at(slot);
        self.obs.record(
            Subsystem::Refresh,
            "policy.invalidate",
            now.raw(),
            0,
            bank as u64,
        );
        debug_assert!(
            !removed.is_dirty() || !self.l3[bank].refresh.is_edram(),
            "the WB/Dirty policies only invalidate clean lines"
        );
        self.invalidate_holders(bank, slot, removed.addr, now);
    }

    /// Invalidates, through inclusion, every private copy of `line`, which
    /// bank `bank` is dropping from `slot`, and resets the slot's directory
    /// entry. Each holder costs an invalidation and its ack on the NoC; a
    /// dirty L2 copy goes to memory, since the L3 backing copy is gone.
    fn invalidate_holders(&mut self, bank: usize, slot: usize, line: LineAddr, now: Cycle) {
        let protocol = &mut self.protocol;
        let holders = self.l3[bank]
            .dir
            .update(slot, |entry| protocol.invalidate_all(entry));
        for holder in holders.iter() {
            let hops = self.hops(bank, holder);
            self.counts.noc_flit_hops += u64::from(hops) * self.ctrl_flits * 2;
            self.tiles[holder].dl1.invalidate(line);
            if let Some(victim) = self.tiles[holder].l2.invalidate(line) {
                let sv = self.tiles[holder].l2_refresh.settle(
                    line_kind(&victim),
                    victim.meta.last_touch,
                    now,
                );
                self.counts.l2_refreshes += sv.refreshes;
                if victim.is_dirty() {
                    self.counts.dram_writes += 1;
                    self.counts.noc_flit_hops += u64::from(hops) * self.data_flits;
                }
            }
        }
    }

    /// Schedules the eager policy-invalidation check for the L3 line in
    /// `slot`, which was just touched at `now`.
    fn schedule_l3_invalidation(&mut self, bank: usize, slot: usize, now: Cycle) {
        let l3_line = self.l3_line(bank, slot);
        if let Some(when) = self.l3[bank]
            .refresh
            .invalidation_time(line_kind(&l3_line), now)
        {
            self.invalidations.schedule(
                when,
                PendingInvalidation {
                    bank,
                    line: l3_line.addr,
                    touch: now,
                },
            );
        }
    }

    /// Processes every pending invalidation whose time has come.
    fn drain_invalidations(&mut self, now: Cycle) {
        while self.invalidations.peek_time().is_some_and(|t| t <= now) {
            let ev = self.invalidations.pop().expect("peeked event exists");
            let PendingInvalidation { bank, line, touch } = ev.event;
            let Some(found) = self.l3[bank].cache.probe(line) else {
                continue;
            };
            let current = self.l3_line(bank, found.slot);
            if current.meta.last_touch != touch {
                continue; // stale prediction: the line was touched again
            }
            let s = self.l3[bank]
                .refresh
                .settle(line_kind(&current), touch, ev.at);
            self.counts.l3_refreshes += s.refreshes;
            if s.refreshes > 0 {
                self.obs.record(
                    Subsystem::Refresh,
                    "settle.drain",
                    ev.at.raw(),
                    0,
                    s.refreshes,
                );
            }
            if s.writeback_at.is_some() {
                self.counts.dram_writes += 1;
                self.obs.record(
                    Subsystem::Dram,
                    "dram.writeback",
                    ev.at.raw(),
                    0,
                    bank as u64,
                );
                self.l3[bank]
                    .cache
                    .update_at(found.slot, CacheLine::write_back);
            }
            if s.invalidated_at.is_some() {
                self.policy_invalidate_l3(bank, found.slot, ev.at);
            }
        }
    }

    // ----------------------------------------------------------------- //
    // End of run
    // ----------------------------------------------------------------- //

    /// Settles every resident line at the end of the run, flushes dirty data
    /// to DRAM (as the paper's methodology requires) and adds bulk refresh
    /// counts for the `All` policy and the statistically-modelled IL1.
    fn finalize(&mut self, end: Cycle) {
        self.drain_invalidations(end);
        let refreshes_before = self.counts.total_refreshes();

        // One system-owned snapshot buffer serves every per-cache sweep
        // below (taken out of `self` so the loops can borrow the system
        // mutably while reading the snapshot).
        let mut snapshot = std::mem::take(&mut self.scratch_lines);

        // Shared L3 banks.
        for bank in 0..self.l3.len() {
            self.l3[bank].cache.collect_valid_into(&mut snapshot);
            for l in &snapshot {
                let s = self.l3[bank]
                    .refresh
                    .settle(line_kind(l), l.meta.last_touch, end);
                self.counts.l3_refreshes += s.refreshes;
                if s.writeback_at.is_some() {
                    self.counts.dram_writes += 1;
                } else if l.is_dirty() && s.invalidated_at.is_none() {
                    // End-of-run flush of dirty data.
                    self.counts.dram_writes += 1;
                }
            }
            if self.l3[bank].refresh.is_bulk_all() {
                self.counts.l3_refreshes += self.l3[bank].refresh.bulk_refreshes(end);
            }
        }

        // Private caches.
        for tile in 0..self.tiles.len() {
            self.tiles[tile].l2.collect_valid_into(&mut snapshot);
            for l in &snapshot {
                let s = self.tiles[tile]
                    .l2_refresh
                    .settle(line_kind(l), l.meta.last_touch, end);
                self.counts.l2_refreshes += s.refreshes;
                if l.is_dirty() {
                    self.counts.dram_writes += 1;
                }
            }
            self.tiles[tile].dl1.collect_valid_into(&mut snapshot);
            for l in &snapshot {
                let s = self.tiles[tile]
                    .dl1_refresh
                    .settle(line_kind(l), l.meta.last_touch, end);
                self.counts.l1_refreshes += s.refreshes;
            }
            // The IL1 is modelled statistically: under Periodic timing every
            // line is refreshed every period; under Refrint its (hot) lines
            // are recharged by fetches and contribute negligibly.
            if self.tiles[tile].dl1_refresh.is_edram() && self.cfg.is_periodic() {
                let il1_lines = self.cfg.il1.geometry.num_lines();
                let periods = end.div_span(self.cfg.retention.line_retention_cycles());
                self.counts.l1_refreshes += il1_lines * periods;
            }
        }

        self.scratch_lines = snapshot;
        self.counts.cycles = end.raw();
        self.obs.record(
            Subsystem::Refresh,
            "settle.finalize",
            end.raw(),
            0,
            self.counts.total_refreshes() - refreshes_before,
        );
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
        for (k, v) in self.protocol.stats().iter() {
            out.add(&format!("coherence.{k}"), v);
        }
        for (k, v) in self.dram.stats().iter() {
            out.add(&format!("dram.{k}"), v);
        }
        // Count the domains actually running sentry-interrupt (Refrint-style)
        // refresh, consulting the bound models rather than the descriptor so
        // custom L3 policy models are reported correctly.
        let sentry = |d: &RefreshDomain| u64::from(d.is_edram() && !d.is_globally_bursting());
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

/// A Dragon update merged into a replica: it stays valid as a clean sharer,
/// and rewriting its cells recharges it at `now`.
fn replicate(line: &mut CacheLine, now: Cycle) {
    line.state = MesiState::Shared;
    line.meta.touch(now);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::Simulation;
    use refrint_edram::policy::{DataPolicy, RefreshPolicy, TimePolicy};
    use refrint_edram::retention::RetentionConfig;
    use refrint_energy::tech::CellTech;
    use refrint_workloads::apps::AppPreset;

    fn small(cells: CellTech, policy: RefreshPolicy) -> SimReport {
        let cfg = SystemConfig::sram_baseline()
            .with_cells(cells)
            .with_policy(policy)
            .with_retention(RetentionConfig::microseconds_50())
            .with_scale(3_000)
            .with_seed(11);
        let mut sys = CmpSystem::new(cfg).unwrap();
        sys.run_model(&AppPreset::Lu.model())
    }

    /// Checks inclusion and the in-cache directory after a run: an invalid
    /// L3 way's entry is `Uncached` (so every other entry sits beside a
    /// valid way), every holder's L2 holds the way's line, and every L2
    /// line is resident in its home bank with its tile among the holders.
    /// Returns how many entries name a holder.
    fn assert_inclusion(sys: &CmpSystem) -> usize {
        let mut tracked = 0;
        for (b, bank) in sys.l3.iter().enumerate() {
            for slot in 0..sys.cfg.l3_bank.geometry.num_lines() as usize {
                let entry = bank.dir.get(slot);
                let Some(l3_line) = bank.cache.line_at(slot) else {
                    assert_eq!(entry, DirectoryEntry::Uncached, "invalid way {b}/{slot}");
                    continue;
                };
                tracked += usize::from(entry.is_cached());
                for holder in entry.holders().iter() {
                    assert!(
                        sys.tiles[holder].l2.line(l3_line.addr).is_some(),
                        "{entry:?} in {b}/{slot}, but tile {holder}'s L2 lacks {:?}",
                        l3_line.addr
                    );
                }
            }
        }
        for (t, tile) in sys.tiles.iter().enumerate() {
            for l2_line in tile.l2.iter_valid() {
                let bank = &sys.l3[l2_line.addr.bank(sys.cfg.l3_banks)];
                let found = bank.cache.probe(l2_line.addr).unwrap_or_else(|| {
                    panic!(
                        "tile {t}'s L2 holds {:?}, its L3 bank does not",
                        l2_line.addr
                    )
                });
                assert!(
                    bank.dir.get(found.slot).holders().contains(t),
                    "tile {t} holds {:?} unknown to the directory",
                    l2_line.addr
                );
            }
        }
        tracked
    }

    #[test]
    fn the_directory_in_the_l3_ways_keeps_inclusion_under_both_protocols() {
        use refrint_coherence::protocol::CoherenceProtocol;
        use refrint_mem::config::CacheGeometry;
        for protocol in CoherenceProtocol::ALL {
            // A 64 KB L3 bank under the eager WB(0,0) policy at 5 us: the
            // run both evicts L3 lines and lets the policy invalidate them,
            // and each drop back-invalidates the private copies.
            let mut cfg = SystemConfig::edram_recommended()
                .with_cores(4)
                .with_policy(RefreshPolicy::new(
                    TimePolicy::Refrint,
                    DataPolicy::write_back(0, 0),
                ))
                .with_retention(RetentionConfig::from_microseconds(5).unwrap())
                .with_protocol(protocol)
                .with_scale(3_000)
                .with_seed(7);
            cfg.l3_bank.geometry = CacheGeometry::new(64 * 1024, 8, 64).unwrap();
            for app in [AppPreset::Fft, AppPreset::Radix] {
                let mut sys = CmpSystem::new(cfg.clone()).unwrap();
                let r = sys.run_model(&app.model());
                let stat = |name: &str| {
                    (0..4)
                        .map(|b| r.stats.get(&format!("l3.{b}.{name}")))
                        .sum::<u64>()
                };
                assert!(
                    stat("evictions") > 0 && stat("invalidations") > 0,
                    "{protocol} {app:?}"
                );
                assert!(r.stats.get("coherence.inclusive_invalidations") > 0);
                assert!(
                    assert_inclusion(&sys) > 0,
                    "{protocol} {app:?} tracked nothing"
                );
            }
        }
    }

    #[test]
    fn sram_run_produces_consistent_counts() {
        let r = small(CellTech::Sram, RefreshPolicy::recommended());
        assert!(r.execution_cycles > 0);
        assert_eq!(r.counts.total_refreshes(), 0, "SRAM never refreshes");
        assert_eq!(r.counts.dl1_accesses, 16 * 3_000);
        assert!(r.counts.l2_accesses > 0);
        assert!(r.counts.l3_accesses > 0);
        assert!(r.counts.instructions >= r.counts.dl1_accesses);
        assert!(r.breakdown.is_physical());
        assert!(r.breakdown.refresh_total() == 0.0);
    }

    #[test]
    fn edram_refreshes_and_uses_less_leakage_than_sram() {
        let sram = small(CellTech::Sram, RefreshPolicy::recommended());
        let edram = small(
            CellTech::Edram,
            RefreshPolicy::new(TimePolicy::Refrint, DataPolicy::Valid),
        );
        assert!(edram.counts.total_refreshes() > 0);
        // Same workload, so dynamic energy is very similar; leakage shrinks.
        assert!(edram.breakdown.on_chip_leakage() < sram.breakdown.on_chip_leakage());
    }

    #[test]
    fn periodic_all_is_slower_and_refreshes_more_than_refrint_valid() {
        let p_all = small(CellTech::Edram, RefreshPolicy::edram_baseline());
        let r_valid = small(
            CellTech::Edram,
            RefreshPolicy::new(TimePolicy::Refrint, DataPolicy::Valid),
        );
        assert!(
            p_all.execution_cycles > r_valid.execution_cycles,
            "periodic blocking must slow execution ({} vs {})",
            p_all.execution_cycles,
            r_valid.execution_cycles
        );
        assert!(
            p_all.counts.total_refreshes() > r_valid.counts.total_refreshes(),
            "Periodic All refreshes every line every period"
        );
    }

    #[test]
    fn aggressive_wb_creates_dram_traffic() {
        let conservative = small(
            CellTech::Edram,
            RefreshPolicy::new(TimePolicy::Refrint, DataPolicy::Valid),
        );
        let aggressive = small(
            CellTech::Edram,
            RefreshPolicy::new(TimePolicy::Refrint, DataPolicy::write_back(0, 0)),
        );
        assert!(
            aggressive.counts.dram_accesses() > conservative.counts.dram_accesses(),
            "WB(0,0) must push more traffic to DRAM ({} vs {})",
            aggressive.counts.dram_accesses(),
            conservative.counts.dram_accesses()
        );
        assert!(
            aggressive.counts.l3_refreshes < conservative.counts.l3_refreshes,
            "WB(0,0) must refresh less than Valid"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = small(CellTech::Edram, RefreshPolicy::recommended());
        let b = small(CellTech::Edram, RefreshPolicy::recommended());
        assert_eq!(a.execution_cycles, b.execution_cycles);
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn small_core_count_configuration_works() {
        let r = Simulation::builder()
            .edram_recommended()
            .cores(4)
            .refs_per_thread(2_000)
            .build()
            .unwrap()
            .run(AppPreset::Barnes)
            .report;
        assert_eq!(r.counts.dl1_accesses, 4 * 2_000);
        assert!(r.execution_cycles > 0);
    }

    #[test]
    fn dragon_runs_update_traffic_instead_of_invalidations() {
        use refrint_coherence::protocol::CoherenceProtocol;
        let run = |protocol| {
            Simulation::builder()
                .edram_recommended()
                .cores(4)
                .refs_per_thread(3_000)
                .seed(11)
                .protocol(protocol)
                .build()
                .unwrap()
                .run(AppPreset::Radix)
                .report
        };
        let rm = run(CoherenceProtocol::Mesi);
        let rd = run(CoherenceProtocol::Dragon);
        assert!(rd.execution_cycles > 0);
        assert_eq!(rd.stats.get("coherence.invalidations_sent"), 0);
        assert!(
            rd.stats.get("coherence.updates_sent") > 0,
            "a sharing workload must broadcast updates under Dragon"
        );
        assert!(rm.stats.get("coherence.updates_sent") == 0);
        // Same workload traffic either way.
        assert_eq!(rm.counts.dl1_accesses, rd.counts.dl1_accesses);
        // Dragon is deterministic too.
        let rd2 = run(CoherenceProtocol::Dragon);
        assert_eq!(rd.execution_cycles, rd2.execution_cycles);
        assert_eq!(rd.counts, rd2.counts);
    }

    #[test]
    fn retention_profile_changes_refresh_behaviour_deterministically() {
        use refrint_edram::variation::RetentionProfile;
        let run = |profile| {
            Simulation::builder()
                .edram_recommended()
                .cores(4)
                .refs_per_thread(3_000)
                .seed(11)
                .retention_profile(profile)
                .build()
                .unwrap()
                .run(AppPreset::Lu)
                .report
        };
        let uniform = run(RetentionProfile::Uniform);
        let profile = RetentionProfile::Bimodal {
            weak_pct: 50,
            weak_retention_pct: 40,
        };
        let varied = run(profile);
        // Weak banks refresh more often than nominal ones.
        assert!(
            varied.counts.l3_refreshes > uniform.counts.l3_refreshes,
            "weak banks must raise the refresh count ({} vs {})",
            varied.counts.l3_refreshes,
            uniform.counts.l3_refreshes
        );
        let varied_again = run(profile);
        assert_eq!(varied.counts, varied_again.counts);
        assert_eq!(varied.execution_cycles, varied_again.execution_cycles);
    }
}
