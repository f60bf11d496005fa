//! Runtime statistics for the cost-based planner.
//!
//! Two layers:
//!
//! * [`TickObservations`] — what one tick's execution *observed*, collected
//!   by the executor per shard and merged deterministically.  Every counter
//!   is integral (rectangle areas are quantised) so the merged totals are
//!   identical under any shard count — the planner's decisions never depend
//!   on the parallelism knob.
//! * [`RuntimeStats`] — the cross-tick store the engine keeps alongside the
//!   `IndexManager`: exponentially weighted averages of cardinality, update
//!   rate, per-call-site probe volume and selectivity, plus the spatial
//!   density (from the maintained index's own hints when one is alive,
//!   otherwise from the environment's bounding box).
//!
//! [`RuntimeStats::inputs_for`] turns the store into the [`CallSiteInputs`]
//! the cost model prices, bootstrapping unseen call sites with conservative
//! priors.

use rustc_hash::FxHashMap;

use sgl_algebra::cost::{CallSiteInputs, PhysicalBackend};

/// Number of [`PhysicalBackend`] variants (size of the per-backend counter
/// arrays).
pub const BACKEND_COUNT: usize = PhysicalBackend::ALL.len();

/// Integral per-call-site observations of one tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallObs {
    /// Aggregate evaluations performed.
    pub probes: u64,
    /// Rows matched, summed over the probes where the executor could count
    /// them (divisible index probes report their accumulator count).
    pub matched: u64,
    /// Number of probes contributing to `matched`.
    pub matched_probes: u64,
    /// Quantised probe-rectangle areas (rounded to integral area units),
    /// summed over the probes with a finite rectangle.
    pub rect_area_q: u64,
    /// Number of probes contributing to `rect_area_q`.
    pub rect_probes: u64,
    /// Largest categorical partition count seen behind this call site.
    pub partitions: u64,
    /// Probes served per physical backend (indexed by
    /// [`PhysicalBackend::index`]) — the *executed* choice surfaced in
    /// `explain` and the perf JSON.
    pub served: [u64; BACKEND_COUNT],
}

impl CallObs {
    /// Count one probe served by `backend`.
    pub(crate) fn add_served(&mut self, backend: PhysicalBackend) {
        self.served[backend.index()] += 1;
    }

    /// Count a probe's rectangle area (quantised to area units); unbounded
    /// rectangles do not contribute.
    pub(crate) fn add_rect_area(&mut self, area: f64) {
        if area.is_finite() && area >= 0.0 {
            self.rect_area_q = self.rect_area_q.saturating_add(area.round() as u64);
            self.rect_probes += 1;
        }
    }

    /// Count the matched rows of a probe that knows them.
    fn add_matched(&mut self, matched: u64) {
        self.matched += matched;
        self.matched_probes += 1;
    }

    fn see_partitions(&mut self, partitions: usize) {
        self.partitions = self.partitions.max(partitions as u64);
    }

    /// A partition count and a served backend together (nearest and min/max
    /// probes, which have no matched-row count).
    pub(crate) fn add_partitioned_serve(&mut self, partitions: usize, backend: PhysicalBackend) {
        self.see_partitions(partitions);
        self.add_served(backend);
    }

    /// Everything one divisible index probe observes: partition count,
    /// serving backend, matched rows and rectangle area.
    pub(crate) fn add_index_probe(
        &mut self,
        partitions: usize,
        backend: PhysicalBackend,
        matched: u64,
        rect_area: f64,
    ) {
        self.add_partitioned_serve(partitions, backend);
        self.add_matched(matched);
        self.add_rect_area(rect_area);
    }

    fn merge(&mut self, other: &CallObs) {
        self.probes += other.probes;
        self.matched += other.matched;
        self.matched_probes += other.matched_probes;
        self.rect_area_q += other.rect_area_q;
        self.rect_probes += other.rect_probes;
        self.partitions = self.partitions.max(other.partitions);
        for (a, b) in self.served.iter_mut().zip(other.served.iter()) {
            *a += b;
        }
    }
}

/// Observations of one tick, per aggregate call site.
#[derive(Debug, Clone, Default)]
pub struct TickObservations {
    /// Call name → observation counters.
    pub calls: FxHashMap<String, CallObs>,
}

impl TickObservations {
    /// Apply `f` to the site's counters, creating the entry on first sight.
    /// The hot path (entry exists) performs one hash lookup and no
    /// allocation; only the first observation of a name allocates its key.
    fn update(&mut self, name: &str, f: impl FnOnce(&mut CallObs)) {
        if let Some(obs) = self.calls.get_mut(name) {
            f(obs);
        } else {
            let mut obs = CallObs::default();
            f(&mut obs);
            self.calls.insert(name.to_string(), obs);
        }
    }

    /// Record one evaluated probe.
    pub fn record_probe(&mut self, name: &str) {
        self.update(name, |e| e.probes += 1);
    }

    /// Record `count` evaluated probes at once.
    pub fn record_probes(&mut self, name: &str, count: u64) {
        if count > 0 {
            self.update(name, |e| e.probes += count);
        }
    }

    /// Record which backend served a probe.
    pub fn record_served(&mut self, name: &str, backend: PhysicalBackend) {
        self.update(name, |e| e.add_served(backend));
    }

    /// Record the matched-row count of a probe (divisible probes know it).
    pub fn record_matched(&mut self, name: &str, matched: u64) {
        self.update(name, |e| e.add_matched(matched));
    }

    /// Record a probe's finite rectangle area (quantised to area units).
    pub fn record_rect_area(&mut self, name: &str, area: f64) {
        if area.is_finite() && area >= 0.0 {
            self.update(name, |e| e.add_rect_area(area));
        }
    }

    /// Record the categorical partition count behind a call site.
    pub fn record_partitions(&mut self, name: &str, partitions: usize) {
        self.update(name, |e| e.see_partitions(partitions));
    }

    /// Fold in the counters a call site accumulated over a run (the probe
    /// path counts into a per-site [`CallObs`] instead of looking the name
    /// up per probe).  A site that observed nothing leaves no entry, exactly
    /// as if none of its probes had been recorded.
    pub fn fold(&mut self, name: &str, site: &CallObs) {
        if *site != CallObs::default() {
            self.update(name, |e| e.merge(site));
        }
    }

    /// Merge another tick fragment (shards, parallel executors).
    pub fn merge(&mut self, other: &TickObservations) {
        for (name, obs) in &other.calls {
            self.update(name, |e| e.merge(obs));
        }
    }
}

/// Cross-tick statistics of one aggregate call site.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CallSiteStats {
    /// EWMA of evaluated probes per tick.
    pub probes: f64,
    /// Whether `probes` reflects at least one direct observation.  Distinct
    /// from `probes > 0.0`: an idle site decays toward zero without ever
    /// reaching it, and pricing that vanishing-but-positive volume as
    /// "observed" skewed early cost decisions after idle windows.  The decay
    /// loop snaps the flag off below `PROBE_FLOOR` (half a probe per tick)
    /// so a long-idle site is priced from priors again, and the next real
    /// observation re-seeds the EWMA at full volume instead of crawling up
    /// by halves.
    pub have_probes: bool,
    /// EWMA of observed selectivity (matched rows / cardinality per probe).
    pub selectivity: f64,
    /// Whether `selectivity` has ever been observed directly.
    pub have_selectivity: bool,
    /// EWMA of probe-rectangle area as a fraction of the world area.
    pub area_fraction: f64,
    /// Whether `area_fraction` has ever been observed.
    pub have_area: bool,
    /// Largest partition count observed.
    pub partitions: f64,
    /// Cumulative probes served per backend (runtime ground truth for the
    /// *executed* physical choice).
    pub served_total: [u64; BACKEND_COUNT],
}

impl CallSiteStats {
    /// Served counters as `(label, count)` pairs for backends that actually
    /// served probes, in the stable [`PhysicalBackend::ALL`] order.
    pub fn served_labels(&self) -> Vec<(&'static str, u64)> {
        PhysicalBackend::ALL
            .iter()
            .zip(self.served_total.iter())
            .filter(|(_, n)| **n > 0)
            .map(|(b, n)| (b.label(), *n))
            .collect()
    }
}

/// EWMA smoothing factor: new observations weigh half — fast enough for the
/// small adaptivity windows of the test suite, smooth enough not to flap.
const ALPHA: f64 = 0.5;

/// Probe volume below which an idle call site is considered unobserved
/// again (see [`CallSiteStats::have_probes`]).
const PROBE_FLOOR: f64 = 0.5;

fn ewma(current: f64, sample: f64, seeded: bool) -> f64 {
    if seeded {
        current + ALPHA * (sample - current)
    } else {
        sample
    }
}

/// The persistent statistics store, kept by the engine alongside the
/// `IndexManager` and fed after every tick.
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Ticks observed so far.
    pub ticks: u64,
    /// EWMA of the environment cardinality.
    pub cardinality: f64,
    /// EWMA of the per-tick update rate (fraction of rows whose position or
    /// values changed).
    pub update_rate: f64,
    /// Whether `update_rate` has been observed.
    pub have_update_rate: bool,
    /// Last observed world area (bounding box of positions, or the
    /// maintained index's own coverage hint when one is alive).
    pub world_area: f64,
    /// Per-call-site statistics.
    pub calls: FxHashMap<String, CallSiteStats>,
}

impl RuntimeStats {
    /// Fold one tick's observations into the store.
    ///
    /// `cardinality` is the post-tick row count, `changed_rows` how many
    /// rows the tick's mutation phases touched, `world_area` the current
    /// spatial coverage (`> 0`), and `density_hint` an optional
    /// rows-per-area measurement from a live maintained index (preferred
    /// over the bounding-box estimate when present).
    pub fn observe_tick(
        &mut self,
        cardinality: usize,
        changed_rows: usize,
        world_area: f64,
        density_hint: Option<f64>,
        obs: &TickObservations,
    ) {
        let seeded = self.ticks > 0;
        let n = cardinality as f64;
        self.cardinality = ewma(self.cardinality, n, seeded);
        if n > 0.0 {
            let rate = (changed_rows as f64 / n).clamp(0.0, 1.0);
            self.update_rate = ewma(self.update_rate, rate, self.have_update_rate);
            self.have_update_rate = true;
        }
        self.world_area = match density_hint {
            Some(d) if d > 0.0 => n / d,
            _ if world_area > 0.0 => world_area,
            _ => self.world_area,
        };
        // Call sites absent from this tick's observations were not probed at
        // all (e.g. every unit running their script died): decay their probe
        // volume toward zero so the planner stops paying for structures that
        // serve nothing, instead of pricing them at their historical volume
        // forever.
        // Only ever-observed sites decay (`have_probes`); once the volume
        // falls under the floor the site reverts to unobserved, so it is
        // priced from priors like a fresh site instead of from a
        // vanishing-but-positive EWMA, and the next real observation
        // re-seeds at full volume.
        for (name, site) in self.calls.iter_mut() {
            if !obs.calls.contains_key(name) && site.have_probes {
                site.probes = ewma(site.probes, 0.0, true);
                if site.probes < PROBE_FLOOR {
                    site.probes = 0.0;
                    site.have_probes = false;
                }
            }
        }
        for (name, o) in &obs.calls {
            let site = self.calls.entry(name.clone()).or_default();
            let site_seeded = site.have_probes;
            site.probes = ewma(site.probes, o.probes as f64, site_seeded);
            if o.probes > 0 {
                site.have_probes = true;
            }
            if o.matched_probes > 0 && n > 0.0 {
                let sel = (o.matched as f64 / (o.matched_probes as f64 * n)).clamp(0.0, 1.0);
                site.selectivity = ewma(site.selectivity, sel, site.have_selectivity);
                site.have_selectivity = true;
            }
            if o.rect_probes > 0 && self.world_area > 0.0 {
                let frac = (o.rect_area_q as f64 / (o.rect_probes as f64 * self.world_area))
                    .clamp(0.0, 1.0);
                site.area_fraction = ewma(site.area_fraction, frac, site.have_area);
                site.have_area = true;
            }
            site.partitions = site.partitions.max(o.partitions as f64);
            for (total, served) in site.served_total.iter_mut().zip(o.served.iter()) {
                *total = total.saturating_add(*served);
            }
        }
        self.ticks += 1;
    }

    /// The cost-model inputs for a call site, bootstrapped with priors where
    /// nothing has been observed yet: every unit probes once per tick, a
    /// probe matches 10 % of the world, a third of the rows change per tick.
    pub fn inputs_for(&self, name: &str, cardinality: usize, cascading: bool) -> CallSiteInputs {
        let n = cardinality as f64;
        let site = self.calls.get(name);
        let probes = match site {
            Some(s) if s.have_probes && s.probes > 0.0 => s.probes,
            _ => n,
        };
        let selectivity = match site {
            Some(s) if s.have_selectivity => s.selectivity,
            Some(s) if s.have_area => s.area_fraction,
            _ => 0.1,
        };
        let update_rate = if self.have_update_rate {
            self.update_rate
        } else {
            0.34
        };
        let partitions = site.map(|s| s.partitions).unwrap_or(0.0).max(1.0);
        CallSiteInputs {
            cardinality: n,
            probes,
            selectivity,
            update_rate,
            partitions,
            cascading,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_merge_and_feed_ewmas() {
        let mut a = TickObservations::default();
        a.record_probe("Count");
        a.record_probe("Count");
        a.record_served("Count", PhysicalBackend::MaintainedGrid);
        a.record_matched("Count", 10);
        a.record_rect_area("Count", 25.0);
        a.record_partitions("Count", 2);
        let mut b = TickObservations::default();
        b.record_probe("Count");
        b.record_served("Count", PhysicalBackend::Scan);
        b.record_rect_area("Count", f64::INFINITY); // ignored
        a.merge(&b);
        let obs = a.calls["Count"];
        assert_eq!(obs.probes, 3);
        assert_eq!(obs.matched, 10);
        assert_eq!(obs.matched_probes, 1);
        assert_eq!(obs.rect_probes, 1);
        assert_eq!(obs.partitions, 2);
        assert_eq!(obs.served[PhysicalBackend::Scan.index()], 1);
        assert_eq!(obs.served[PhysicalBackend::MaintainedGrid.index()], 1);

        let mut stats = RuntimeStats::default();
        stats.observe_tick(100, 25, 400.0, None, &a);
        assert_eq!(stats.ticks, 1);
        assert_eq!(stats.cardinality, 100.0);
        assert_eq!(stats.update_rate, 0.25);
        let site = &stats.calls["Count"];
        assert_eq!(site.probes, 3.0);
        assert!(site.have_selectivity);
        assert!((site.selectivity - 0.1).abs() < 1e-12);
        assert_eq!(site.served_labels(), vec![("scan", 1), ("grid", 1)]);

        // Second tick with different values moves the EWMAs halfway.
        let mut c = TickObservations::default();
        c.record_probe("Count");
        stats.observe_tick(100, 75, 400.0, None, &c);
        assert!((stats.update_rate - 0.5).abs() < 1e-12);
        assert!((stats.calls["Count"].probes - 2.0).abs() < 1e-12);

        // A tick with no observations for the site decays its probe volume
        // toward zero (the site stopped being probed).
        stats.observe_tick(100, 0, 400.0, None, &TickObservations::default());
        assert!((stats.calls["Count"].probes - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_windows_unseed_and_reseed_probe_volume() {
        let mut stats = RuntimeStats::default();
        let mut active = TickObservations::default();
        active.record_probes("Count", 100);
        stats.observe_tick(100, 10, 400.0, None, &active);
        assert!(stats.calls["Count"].have_probes);
        assert_eq!(stats.calls["Count"].probes, 100.0);

        // A long idle window decays the volume; once it crosses the floor
        // the site reverts to unobserved and is priced from priors again —
        // not from a vanishing-but-positive EWMA.
        let idle = TickObservations::default();
        for _ in 0..16 {
            stats.observe_tick(100, 0, 400.0, None, &idle);
        }
        let site = &stats.calls["Count"];
        assert!(!site.have_probes);
        assert_eq!(site.probes, 0.0);
        assert_eq!(stats.inputs_for("Count", 100, true).probes, 100.0);

        // Reactivation re-seeds at the full observed volume instead of
        // crawling up from the decayed remnant by halves.
        stats.observe_tick(100, 10, 400.0, None, &active);
        assert_eq!(stats.calls["Count"].probes, 100.0);
        assert!(stats.calls["Count"].have_probes);
    }

    #[test]
    fn unseen_call_sites_get_priors() {
        let stats = RuntimeStats::default();
        let inputs = stats.inputs_for("Never", 50, true);
        assert_eq!(inputs.cardinality, 50.0);
        assert_eq!(inputs.probes, 50.0);
        assert!((inputs.selectivity - 0.1).abs() < 1e-12);
        assert!((inputs.update_rate - 0.34).abs() < 1e-12);
        assert_eq!(inputs.partitions, 1.0);
    }

    #[test]
    fn density_hint_overrides_bounding_box_area() {
        let mut stats = RuntimeStats::default();
        let obs = TickObservations::default();
        stats.observe_tick(100, 0, 1000.0, Some(0.5), &obs);
        assert!((stats.world_area - 200.0).abs() < 1e-9);
        stats.observe_tick(100, 0, 1000.0, None, &obs);
        assert!((stats.world_area - 1000.0).abs() < 1e-9);
    }
}
