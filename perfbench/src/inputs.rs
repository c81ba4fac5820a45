//! Seeded input generators. Every workload's inputs are a pure function
//! of `--seed` (and, for the open loop, of the request count): the
//! program under test only ever sees the generated scenarios and bytes.

use kibamrm::scenario::Scenario;
use kibamrm::sweep::ScenarioGrid;
use kibamrm::workload::Workload;
use units::{Charge, Current, Frequency, Rate, Time};

/// SplitMix64: a small, well-mixed, seedable generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Battery capacity of every scenario (Fig. 8: 7200 As).
pub const CAPACITY_AS: f64 = 7200.0;
/// The solve size class: Δ, horizon and grid of `solve-cold` and of every
/// `sweep-family` member (the paper's cost point, t = 17 000 s).
pub const SOLVE_DELTA_AS: f64 = 100.0;
pub const SOLVE_HORIZON_S: f64 = 17_000.0;
pub const SOLVE_POINTS: usize = 32;
/// Distinct scenarios `solve-cold` cycles through.
pub const SOLVE_POOL: usize = 4;
/// The power-of-two rate-scale family of `sweep-family`.
pub const FAMILY_SCALES: [f64; 4] = [0.125, 0.25, 0.5, 1.0];
/// Grids per seed, and the lattice `c` of their two families (every grid
/// uses both, so grids differ in jitter and order, not in cost).
pub const GRIDS: usize = 2;
pub const GRID_CS: [f64; 2] = [45.0 / 72.0, 46.0 / 72.0];

/// The serving size class: coarse Δ, slow duty cycle, so a miss is a
/// short solve and the fast Monte Carlo tier fits its grace budget.
pub const FLEET_DELTA_AS: f64 = 200.0;
pub const FLEET_FREQUENCY_HZ: f64 = 0.05;
pub const FLEET_HORIZON_S: f64 = 8000.0;
pub const FLEET_POINTS: usize = 16;
/// Warmed configurations of `http-fleet`.
pub const FLEET_WARM: usize = 8;
/// Rate scales of the warm-state siblings (`γ = 2^-1 … 2^-8`).
pub const SIBLING_SCALES: usize = 8;
/// Offered rate of the open loop, requests per second.
pub const FLEET_RATE: f64 = 60.0;
/// Per-device quota burst; devices other than the rogue stay below it.
pub const QUOTA_BURST: usize = 16;
pub const DEVICE_REQUESTS: usize = 12;
/// Resident configurations of `http-keepalive` and their answer size.
pub const KEEPALIVE_CONFIGS: usize = 16;
pub const KEEPALIVE_POINTS: usize = 256;
/// Device labels per resident configuration (same key, other bytes).
pub const KEEPALIVE_LABELS: usize = 4;

/// A Fig. 8 variant: on/off Erlang-1 workload at `hz`, 0.96 A on-current.
pub fn fig8(
    name: &str,
    hz: f64,
    c: f64,
    k: f64,
    delta: f64,
    horizon: f64,
    points: usize,
) -> Scenario {
    Scenario::builder()
        .name(name)
        .workload(
            Workload::on_off_erlang(Frequency::from_hertz(hz), 1, Current::from_amps(0.96))
                .expect("on/off workload with positive rates"),
        )
        .capacity(Charge::from_amp_seconds(CAPACITY_AS))
        .kibam(c, Rate::per_second(k))
        .time_grid(Time::from_seconds(horizon), points)
        .delta(Charge::from_amp_seconds(delta))
        .build()
        .expect("valid Fig. 8 variant")
}

/// `c` values whose wells split into whole quanta of `delta` (the
/// discretisation requires Δ to divide both `c·C` and `(1 − c)·C`),
/// within `[lo, hi]`.
pub fn lattice_cs(delta: f64, lo: f64, hi: f64) -> Vec<f64> {
    let quanta = (CAPACITY_AS / delta).round() as usize;
    (1..quanta)
        .map(|n| n as f64 / quanta as f64)
        .filter(|c| (lo..=hi).contains(c))
        .collect()
}

/// Coarser-to-finer steps that also split every well of a Δ lattice into
/// whole quanta (the integer divisors of Δ from Δ/2 down to 4 As), for
/// family variants of a scenario.
pub fn sub_deltas(delta: f64) -> Vec<f64> {
    let d = delta.round() as usize;
    (4..d)
        .rev()
        .filter(|s| d % s == 0)
        .map(|s| s as f64)
        .collect()
}

/// Lattice `c` values of the solve size class (`n/72` at Δ = 100 As):
/// every seed uses all of them, so seeds differ in order and in the
/// small `k` and rate jitter, not in cost.
const SOLVE_CS: [f64; 4] = [44.0 / 72.0, 45.0 / 72.0, 46.0 / 72.0, 47.0 / 72.0];

/// A Fig. 8 variant of the solve size class with seed-drawn jitter.
fn solve_class(rng: &mut Rng, name: &str, c: f64) -> Scenario {
    fig8(
        name,
        rng.range(0.995, 1.005),
        c,
        4.5e-5 * rng.range(0.98, 1.02),
        SOLVE_DELTA_AS,
        SOLVE_HORIZON_S,
        SOLVE_POINTS,
    )
}

/// `solve-cold`: [`SOLVE_POOL`] Fig. 8 variants in one size class, no two
/// sharing a structural fingerprint (distinct lattice `c`, with `k` and
/// the workload rate jittered).
pub fn solve_cold(seed: u64) -> Vec<Scenario> {
    let mut rng = Rng::new(seed ^ 0x501e);
    let mut cs = SOLVE_CS[..SOLVE_POOL].to_vec();
    rng.shuffle(&mut cs);
    cs.iter()
        .enumerate()
        .map(|(i, &c)| solve_class(&mut rng, &format!("cold-{i}"), c))
        .collect()
}

/// `sweep-family`: [`GRIDS`] grids, each [`FAMILY_SCALES`] × one Δ × one
/// `(c, k)` pair per [`GRID_CS`] value, expanded in the planner's input
/// order: two rate-scale families of distinct structure per grid.
pub fn sweep_grids(seed: u64) -> Vec<Vec<Scenario>> {
    let mut rng = Rng::new(seed ^ 0x5eed);
    (0..GRIDS)
        .map(|g| {
            let mut cs = GRID_CS.to_vec();
            rng.shuffle(&mut cs);
            let base = solve_class(&mut rng, &format!("grid-{g}"), cs[0]);
            let kibams = cs
                .iter()
                .map(|&c| (c, Rate::per_second(4.5e-5 * rng.range(0.98, 1.02))))
                .collect();
            ScenarioGrid::new(base)
                .kibams(kibams)
                .deltas(vec![Charge::from_amp_seconds(SOLVE_DELTA_AS)])
                .rate_scales(FAMILY_SCALES.to_vec())
                .expand()
                .expect("valid family grid")
        })
        .collect()
}

/// `primary`'s power-of-two rate-scale family ([`FAMILY_SCALES`]): the
/// members share one fingerprint, so the planner solves them as one group.
pub fn family_grid(primary: &Scenario) -> Vec<Scenario> {
    ScenarioGrid::new(primary.clone())
        .rate_scales(FAMILY_SCALES.to_vec())
        .expand()
        .expect("power-of-two rate scales are valid")
}

/// Outcome classes of the `http-fleet` trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// A device-relabelled repeat of a warmed configuration.
    Hit,
    /// A fresh configuration: new key and family (its lattice structure
    /// may already have warm state).
    FreshMiss,
    /// A power-of-two rate-rescaled sibling of a warmed configuration:
    /// new key, resident warm state.
    WarmMiss,
    /// Expired deadline on a warmed family at another Δ: served from the
    /// cached family curve.
    DegradedFamily,
    /// Expired deadline on a family nothing resident shares: served by
    /// the fast Monte Carlo tier.
    DegradedSim,
    /// A body the server must refuse with 400.
    Malformed,
    /// The rogue device: admitted up to its burst, then 429.
    Rogue,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::FreshMiss => "fresh_miss",
            Class::WarmMiss => "warm_miss",
            Class::DegradedFamily => "degraded_family",
            Class::DegradedSim => "degraded_sim",
            Class::Malformed => "malformed",
            Class::Rogue => "rogue",
        }
    }
}

/// One request of the open loop.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRequest {
    pub class: Class,
    pub device: String,
    pub body: Vec<u8>,
    /// Index into [`FleetTrace::exact`] of the configuration whose exact
    /// answer this request must return (for `DegradedFamily`: the
    /// resident family curve it must be served from).
    pub expect: Option<usize>,
}

/// The `http-fleet` inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTrace {
    /// Every configuration with an exact answer; the first
    /// [`FLEET_WARM`] are warmed during set-up.
    pub exact: Vec<Scenario>,
    /// Configurations of the `DegradedSim` requests, by request order.
    pub sim: Vec<Scenario>,
    pub requests: Vec<FleetRequest>,
}

impl FleetTrace {
    pub fn count(&self, class: Class) -> usize {
        self.requests.iter().filter(|r| r.class == class).count()
    }

    pub fn warm(&self) -> &[Scenario] {
        &self.exact[..FLEET_WARM]
    }
}

/// Envelope body of a `/query` request.
pub fn envelope(scenario: &Scenario, degraded: bool) -> Vec<u8> {
    let config = scenario.to_config_string().expect("serialisable scenario");
    let mut out = String::from("{\"scenario\":");
    kibamrm_net::json::write_string(&mut out, &config);
    if degraded {
        out.push_str(",\"deadline_ms\":0,\"degraded_ok\":true");
    }
    out.push('}');
    out.into_bytes()
}

/// The `http-fleet` trace of `n` requests.
pub fn fleet(seed: u64, n: usize) -> FleetTrace {
    let mut rng = Rng::new(seed ^ 0xf1ee7);
    // A distinct k per configuration, so no two generated configurations
    // share a family (and a degraded-sim request never finds a cached
    // relative); c is drawn from the Δ lattice.
    let cs = lattice_cs(FLEET_DELTA_AS, 0.4, 0.7);
    let mut ks: Vec<usize> = (0..4096).collect();
    rng.shuffle(&mut ks);
    let mut ks = ks.into_iter();
    let mut fresh = |rng: &mut Rng, name: &str| {
        let k = ks.next().expect("enough distinct k values");
        fig8(
            name,
            FLEET_FREQUENCY_HZ * rng.range(0.9, 1.1),
            cs[rng.below(cs.len())],
            4.5e-5 * (0.8 + 0.4 * k as f64 / 4096.0),
            FLEET_DELTA_AS,
            FLEET_HORIZON_S,
            FLEET_POINTS,
        )
    };
    let family_deltas = sub_deltas(FLEET_DELTA_AS);
    let mut exact: Vec<Scenario> = (0..FLEET_WARM)
        .map(|i| fresh(&mut rng, &format!("warm-{i}")))
        .collect();

    let share = |pct: usize, floor: usize| (n * pct / 100).max(floor);
    let malformed = share(3, 1);
    let rogue = share(4, QUOTA_BURST + 8);
    let family = share(5, 1).min(FLEET_WARM * family_deltas.len());
    let sim = share(4, 1);
    let cold = share(8, 1);
    let warm_miss = share(5, 1).min(FLEET_WARM * SIBLING_SCALES);
    let rest = malformed + rogue + family + sim + cold + warm_miss;
    let hits = n.saturating_sub(rest);
    let mut classes = Vec::with_capacity(n.max(rest));
    for (class, count) in [
        (Class::Hit, hits),
        (Class::FreshMiss, cold),
        (Class::WarmMiss, warm_miss),
        (Class::DegradedFamily, family),
        (Class::DegradedSim, sim),
        (Class::Malformed, malformed),
        (Class::Rogue, rogue),
    ] {
        classes.extend(std::iter::repeat_n(class, count));
    }
    rng.shuffle(&mut classes);

    let mut siblings: Vec<(usize, i32)> = (0..FLEET_WARM)
        .flat_map(|w| (1..=SIBLING_SCALES as i32).map(move |e| (w, e)))
        .collect();
    rng.shuffle(&mut siblings);
    let mut siblings = siblings.into_iter();
    let mut variants: Vec<(usize, f64)> = (0..FLEET_WARM)
        .flat_map(|w| family_deltas.iter().map(move |&d| (w, d)))
        .collect();
    rng.shuffle(&mut variants);
    let mut variants = variants.into_iter();
    let mut sims = Vec::new();
    let mut requests = Vec::with_capacity(classes.len());
    let mut device_slot = 0usize;
    for class in classes {
        let device = if class == Class::Rogue {
            "rogue".to_string()
        } else {
            device_slot += 1;
            format!("dev-{}", (device_slot - 1) / DEVICE_REQUESTS)
        };
        let label = device.clone();
        let (body, expect) = match class {
            Class::Hit | Class::Rogue => {
                let w = rng.below(FLEET_WARM);
                (envelope(&exact[w].with_name(label), false), Some(w))
            }
            Class::FreshMiss => {
                let s = fresh(&mut rng, &label);
                exact.push(s);
                (
                    envelope(&exact[exact.len() - 1], false),
                    Some(exact.len() - 1),
                )
            }
            Class::WarmMiss => {
                let (w, e) = siblings
                    .next()
                    .expect("warm_miss capped by the sibling count");
                let s = exact[w]
                    .with_rate_scale(2f64.powi(-e))
                    .expect("power-of-two rate scale")
                    .with_name(label);
                exact.push(s);
                (
                    envelope(&exact[exact.len() - 1], false),
                    Some(exact.len() - 1),
                )
            }
            Class::DegradedFamily => {
                // A (configuration, Δ) pair no other request uses: a fresh
                // key in w's family.
                let (w, delta) = variants
                    .next()
                    .expect("family count capped by the variants");
                let s = exact[w].with_delta(Charge::from_amp_seconds(delta));
                (envelope(&s.with_name(label), true), Some(w))
            }
            Class::DegradedSim => {
                let s = fresh(&mut rng, &label);
                let body = envelope(&s, true);
                sims.push(s);
                (body, None)
            }
            Class::Malformed => {
                let body: &[u8] = match rng.below(3) {
                    0 => b"not a scenario",
                    1 => b"{\"scenario\": 42}",
                    _ => b"{\"scenario\": \"# kibamrm scenario v1\\n\", \"deadline_ms\": -1}",
                };
                (body.to_vec(), None)
            }
        };
        requests.push(FleetRequest {
            class,
            device,
            body,
            expect,
        });
    }
    FleetTrace {
        exact,
        sim: sims,
        requests,
    }
}

/// The `http-keepalive` inputs: resident configurations and, per
/// configuration, [`KEEPALIVE_LABELS`] relabelled request bodies.
pub struct KeepAliveInputs {
    pub configs: Vec<Scenario>,
    /// `(config index, body)`.
    pub bodies: Vec<(usize, Vec<u8>)>,
}

pub fn keepalive(seed: u64) -> KeepAliveInputs {
    let mut rng = Rng::new(seed ^ 0x4ee9);
    let cs = lattice_cs(FLEET_DELTA_AS, 0.4, 0.7);
    let configs: Vec<Scenario> = (0..KEEPALIVE_CONFIGS)
        .map(|i| {
            fig8(
                &format!("resident-{i}"),
                FLEET_FREQUENCY_HZ * rng.range(0.9, 1.1),
                cs[rng.below(cs.len())],
                4.5e-5 * rng.range(0.8, 1.2),
                FLEET_DELTA_AS,
                FLEET_HORIZON_S,
                KEEPALIVE_POINTS,
            )
        })
        .collect();
    let bodies = configs
        .iter()
        .enumerate()
        .flat_map(|(i, s)| {
            (0..KEEPALIVE_LABELS)
                .map(move |l| (i, envelope(&s.with_name(format!("device-{i}-{l}")), false)))
        })
        .collect();
    KeepAliveInputs { configs, bodies }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kibamrm::{DiscretisationSolver, LifetimeSolver};

    fn fingerprint(s: &Scenario) -> Option<u64> {
        DiscretisationSolver::new().sweep_fingerprint(s)
    }

    fn keys(scenarios: &[Scenario]) -> Vec<Vec<u8>> {
        scenarios
            .iter()
            .map(|s| s.canonical_bytes().unwrap())
            .collect()
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], Rng::new(8).next_u64());
    }

    #[test]
    fn solve_cold_is_seed_determined_with_distinct_fingerprints() {
        let a = solve_cold(3);
        assert_eq!(keys(&a), keys(&solve_cold(3)));
        assert_ne!(keys(&a), keys(&solve_cold(4)));
        let mut prints: Vec<u64> = a.iter().map(|s| fingerprint(s).unwrap()).collect();
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), SOLVE_POOL);
    }

    #[test]
    fn sweep_grids_are_seed_determined_families() {
        let a = sweep_grids(5);
        assert_eq!(a.len(), GRIDS);
        for (g, h) in a.iter().zip(&sweep_grids(5)) {
            assert_eq!(keys(g), keys(h));
            assert_eq!(g.len(), FAMILY_SCALES.len() * GRID_CS.len());
        }
        assert_ne!(keys(&a[0]), keys(&sweep_grids(6)[0]));
    }

    #[test]
    fn family_grid_shares_one_fingerprint_under_distinct_keys() {
        let primary = &keepalive(5).configs[0];
        let grid = family_grid(primary);
        assert_eq!(grid.len(), FAMILY_SCALES.len());
        let mut prints: Vec<u64> = grid.iter().map(|s| fingerprint(s).unwrap()).collect();
        prints.dedup();
        assert_eq!(prints.len(), 1);
        let mut k = keys(&grid);
        k.sort();
        k.dedup();
        assert_eq!(k.len(), grid.len());
    }

    #[test]
    fn fleet_trace_is_seed_determined_and_keys_are_fresh() {
        let a = fleet(11, 1200);
        assert_eq!(a, fleet(11, 1200));
        assert_ne!(a.requests, fleet(12, 1200).requests);
        assert_eq!(a.requests.len(), 1200);
        // Fixed class counts for a given size, whatever the seed.
        for class in [
            Class::Hit,
            Class::FreshMiss,
            Class::WarmMiss,
            Class::DegradedFamily,
            Class::DegradedSim,
            Class::Malformed,
            Class::Rogue,
        ] {
            assert_eq!(a.count(class), fleet(99, 1200).count(class), "{class:?}");
        }
        assert!(a.count(Class::Hit) * 2 > a.requests.len());
        assert!(a.count(Class::Rogue) > QUOTA_BURST);
        // Every miss and degraded request carries a key no other request
        // carries, so no two of them can join one flight.
        let mut fresh: Vec<Vec<u8>> = a
            .requests
            .iter()
            .filter(|r| !matches!(r.class, Class::Hit | Class::Rogue | Class::Malformed))
            .map(|r| {
                let text = std::str::from_utf8(&r.body).unwrap();
                let json = kibamrm_net::Json::parse(text).unwrap();
                let config = json.get("scenario").unwrap().as_str().unwrap();
                Scenario::from_config_str(config)
                    .unwrap()
                    .canonical_bytes()
                    .unwrap()
            })
            .collect();
        let n = fresh.len();
        fresh.sort();
        fresh.dedup();
        assert_eq!(fresh.len(), n);
        // No device but the rogue exceeds its quota burst.
        let mut per_device = std::collections::BTreeMap::new();
        for r in &a.requests {
            *per_device.entry(r.device.as_str()).or_insert(0usize) += 1;
        }
        for (device, count) in per_device {
            assert!(device == "rogue" || count <= DEVICE_REQUESTS, "{device}");
        }
    }

    #[test]
    fn keepalive_inputs_are_seed_determined() {
        let a = keepalive(2);
        let b = keepalive(2);
        assert_eq!(keys(&a.configs), keys(&b.configs));
        assert_eq!(a.bodies, b.bodies);
        assert_eq!(a.bodies.len(), KEEPALIVE_CONFIGS * KEEPALIVE_LABELS);
        assert_ne!(keys(&a.configs), keys(&keepalive(3).configs));
    }
}
