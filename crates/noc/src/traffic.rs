//! Traffic injection for the NoC simulator.
//!
//! Two orthogonal choices define synthetic NoC traffic: *when* a tile
//! injects ([`InjectionProcess`] — Bernoulli for Markovian traffic,
//! Pareto ON/OFF for the self-similar multimedia traffic of §3.2) and
//! *where* packets go ([`TrafficPattern`] — uniform, hotspot, transpose,
//! nearest-neighbour). §3.2 notes multimedia NoC traffic is *correlated*
//! along the processing pipeline, which the hotspot and neighbour
//! patterns capture.

use dms_sim::SimRng;

use crate::topology::{Mesh2d, TileId};

/// Spatial destination pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum TrafficPattern {
    /// Uniformly random destination (excluding the source).
    Uniform,
    /// With probability `fraction`, send to `hotspot` (e.g. a shared
    /// memory tile); otherwise uniform. Captures the global-memory
    /// bottleneck §3.3 warns about.
    Hotspot {
        /// The contended tile.
        hotspot: TileId,
        /// Probability of addressing the hotspot.
        fraction: f64,
    },
    /// Tile `(x, y)` sends to `(y, x)` (requires a square mesh; falls
    /// back to uniform on non-square meshes).
    Transpose,
}

impl TrafficPattern {
    /// Chooses a destination for a packet from `src`.
    ///
    /// Never returns `src` itself (self-traffic stays on-tile and does
    /// not exercise the network); on a 1×1 mesh, returns `src` since no
    /// other tile exists.
    #[must_use]
    pub fn pick_destination(&self, mesh: &Mesh2d, src: TileId, rng: &mut SimRng) -> TileId {
        if mesh.tile_count() == 1 {
            return src;
        }
        match self {
            TrafficPattern::Uniform => uniform_excluding(mesh, src, rng),
            TrafficPattern::Hotspot { hotspot, fraction } => {
                if mesh.contains(*hotspot) && *hotspot != src && rng.chance(*fraction) {
                    *hotspot
                } else {
                    uniform_excluding(mesh, src, rng)
                }
            }
            TrafficPattern::Transpose => {
                if mesh.width() == mesh.height() {
                    let (x, y) = mesh.coords(src);
                    let t = mesh
                        .tile_at(y, x)
                        .expect("square mesh transposes onto itself");
                    if t == src {
                        uniform_excluding(mesh, src, rng)
                    } else {
                        t
                    }
                } else {
                    uniform_excluding(mesh, src, rng)
                }
            }
        }
    }
}

fn uniform_excluding(mesh: &Mesh2d, src: TileId, rng: &mut SimRng) -> TileId {
    loop {
        let t = TileId(rng.below(mesh.tile_count()));
        if t != src {
            return t;
        }
    }
}

/// Temporal injection process: when does a tile create a packet?
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum InjectionProcess {
    /// Inject with independent probability `p` each cycle (short-range
    /// dependent / Markovian).
    Bernoulli {
        /// Per-cycle injection probability.
        p: f64,
    },
    /// Pareto ON/OFF source: inject with probability `p_on` during ON
    /// periods; ON and OFF sojourns are Pareto(`alpha`) distributed with
    /// the same tail index — heavy-tailed for `alpha < 2`, giving the
    /// self-similar aggregate of §3.2.
    ParetoOnOff {
        /// Injection probability while ON.
        p_on: f64,
        /// Pareto tail index of both sojourn distributions, in `(1, 2]`.
        alpha: f64,
        /// Mean sojourn scale in cycles.
        min_period: f64,
    },
}

impl InjectionProcess {
    /// Generates the injection schedule for `cycles` cycles: `true`
    /// where a packet is created.
    #[must_use]
    pub fn schedule(&self, cycles: usize, rng: &mut SimRng) -> Vec<bool> {
        match *self {
            InjectionProcess::Bernoulli { p } => (0..cycles).map(|_| rng.chance(p)).collect(),
            InjectionProcess::ParetoOnOff {
                p_on,
                alpha,
                min_period,
            } => {
                let mut out = vec![false; cycles];
                let mut on = rng.chance(0.5);
                let mut t = 0usize;
                while t < cycles {
                    let len = rng.pareto(min_period, alpha).round().max(1.0) as usize;
                    let end = (t + len).min(cycles);
                    if on {
                        for slot in &mut out[t..end] {
                            *slot = rng.chance(p_on);
                        }
                    }
                    t = end;
                    on = !on;
                }
                out
            }
        }
    }
}

/// Application-driven traffic: injection rates and destinations derived
/// from a mapped core graph, so the flit-level simulator exercises the
/// *same* workload the mapping optimiser reasoned about analytically.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedTraffic {
    /// `rates[tile]` = packets per cycle the core on `tile` injects.
    rates: Vec<f64>,
    /// `dests[tile]` = (destination tile, weight) pairs.
    dests: Vec<Vec<(TileId, f64)>>,
}

impl MappedTraffic {
    /// Derives traffic from `graph` placed by `mapping`, normalised so
    /// the busiest core injects `peak_rate` packets per cycle.
    ///
    /// Returns `None` if the graph has no traffic at all.
    #[must_use]
    pub fn from_mapping(
        graph: &crate::mapping::CoreGraph,
        mapping: &crate::mapping::TileMapping,
        mesh: &Mesh2d,
        peak_rate: f64,
    ) -> Option<MappedTraffic> {
        let n = mesh.tile_count();
        let mut volume_out = vec![0.0f64; n];
        let mut dests: Vec<Vec<(TileId, f64)>> = vec![Vec::new(); n];
        for src in 0..graph.core_count() {
            let src_tile = mapping.tile_of(src)?;
            for dst in 0..graph.core_count() {
                let v = graph.volume(src, dst);
                if v > 0.0 && src != dst {
                    let dst_tile = mapping.tile_of(dst)?;
                    if dst_tile != src_tile {
                        volume_out[src_tile.index()] += v;
                        dests[src_tile.index()].push((dst_tile, v));
                    }
                }
            }
        }
        let max_volume = volume_out.iter().copied().fold(0.0f64, f64::max);
        if max_volume <= 0.0 {
            return None;
        }
        let rates = volume_out
            .iter()
            .map(|&v| peak_rate * (v / max_volume))
            .collect();
        Some(MappedTraffic { rates, dests })
    }

    /// Injection probability of `tile` per cycle.
    #[must_use]
    pub fn rate(&self, tile: TileId) -> f64 {
        self.rates.get(tile.index()).copied().unwrap_or(0.0)
    }

    /// Picks a destination for a packet from `tile` proportional to the
    /// application's communication volumes; `None` if the tile's core
    /// sends nothing.
    #[must_use]
    pub fn pick_destination(&self, tile: TileId, rng: &mut SimRng) -> Option<TileId> {
        let choices = self.dests.get(tile.index())?;
        if choices.is_empty() {
            return None;
        }
        let weights: Vec<f64> = choices.iter().map(|&(_, w)| w).collect();
        let idx = rng.weighted_choice(&weights)?;
        Some(choices[idx].0)
    }

    /// Generates a per-cycle injection schedule for `tile`.
    #[must_use]
    pub fn schedule(&self, tile: TileId, cycles: usize, rng: &mut SimRng) -> Vec<bool> {
        let p = self.rate(tile);
        (0..cycles).map(|_| rng.chance(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh2d {
        Mesh2d::new(4, 4).expect("valid")
    }

    #[test]
    fn uniform_never_self_addresses() {
        let m = mesh();
        let mut rng = SimRng::new(1);
        for _ in 0..500 {
            let dst = TrafficPattern::Uniform.pick_destination(&m, TileId(5), &mut rng);
            assert_ne!(dst, TileId(5));
            assert!(m.contains(dst));
        }
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let m = mesh();
        let mut rng = SimRng::new(2);
        let pattern = TrafficPattern::Hotspot {
            hotspot: TileId(10),
            fraction: 0.5,
        };
        let hits = (0..2000)
            .filter(|_| pattern.pick_destination(&m, TileId(0), &mut rng) == TileId(10))
            .count();
        // 50% direct + ~1/15 of the uniform remainder.
        let frac = hits as f64 / 2000.0;
        assert!((frac - 0.53).abs() < 0.05, "hotspot fraction {frac}");
    }

    #[test]
    fn transpose_is_deterministic() {
        let m = mesh();
        let mut rng = SimRng::new(3);
        // (1,2) = tile 9 → (2,1) = tile 6.
        let dst = TrafficPattern::Transpose.pick_destination(&m, TileId(9), &mut rng);
        assert_eq!(dst, TileId(6));
        // Diagonal tiles fall back to uniform (can't self-address).
        let diag = TrafficPattern::Transpose.pick_destination(&m, TileId(5), &mut rng);
        assert_ne!(diag, TileId(5));
    }

    #[test]
    fn single_tile_mesh_returns_src() {
        let m = Mesh2d::new(1, 1).expect("valid");
        let mut rng = SimRng::new(5);
        assert_eq!(
            TrafficPattern::Uniform.pick_destination(&m, TileId(0), &mut rng),
            TileId(0)
        );
    }

    #[test]
    fn bernoulli_load_matches_p() {
        let mut rng = SimRng::new(6);
        let sched = InjectionProcess::Bernoulli { p: 0.3 }.schedule(20_000, &mut rng);
        let rate = sched.iter().filter(|&&b| b).count() as f64 / sched.len() as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn pareto_onoff_is_burstier_than_bernoulli() {
        let mut rng = SimRng::new(7);
        let onoff = InjectionProcess::ParetoOnOff {
            p_on: 0.6,
            alpha: 1.3,
            min_period: 10.0,
        };
        // Symmetric ON/OFF sojourns: duty cycle 1/2, so the same
        // offered load as Bernoulli at p_on / 2.
        let bern = InjectionProcess::Bernoulli { p: 0.3 };
        let s1 = onoff.schedule(30_000, &mut rng);
        let s2 = bern.schedule(30_000, &mut rng);
        // Compare variance of 100-cycle aggregated counts.
        let agg_var = |s: &[bool]| {
            let counts: Vec<f64> = s
                .chunks(100)
                .map(|c| c.iter().filter(|&&b| b).count() as f64)
                .collect();
            let m = counts.iter().sum::<f64>() / counts.len() as f64;
            counts.iter().map(|x| (x - m).powi(2)).sum::<f64>() / counts.len() as f64
        };
        assert!(
            agg_var(&s1) > 2.0 * agg_var(&s2),
            "ON/OFF var {} should dwarf Bernoulli var {}",
            agg_var(&s1),
            agg_var(&s2)
        );
    }

    #[test]
    fn mapped_traffic_follows_the_application() {
        use crate::mapping::{CoreGraph, Mapper};
        let graph = CoreGraph::vopd();
        let m = Mesh2d::new(4, 4).expect("valid");
        let mapping = Mapper::new(&graph, &m).expect("fits").greedy();
        let traffic = MappedTraffic::from_mapping(&graph, &mapping, &m, 0.05).expect("has traffic");
        // The busiest core injects at the peak rate.
        let max_rate = m.tiles().map(|t| traffic.rate(t)).fold(0.0f64, f64::max);
        assert!((max_rate - 0.05).abs() < 1e-12);
        // Destinations respect the application: a tile hosting a silent
        // core picks no destination.
        let mut rng = SimRng::new(9);
        for t in m.tiles() {
            match traffic.pick_destination(t, &mut rng) {
                Some(dst) => assert_ne!(dst, t, "no self traffic"),
                None => assert_eq!(traffic.rate(t), 0.0),
            }
        }
    }

    #[test]
    fn mapped_traffic_empty_graph_is_none() {
        use crate::mapping::{CoreGraph, TileMapping};
        let graph = CoreGraph::new("silent", 4);
        let m = Mesh2d::new(2, 2).expect("valid");
        let mapping = TileMapping::new(m.tiles().collect());
        assert!(MappedTraffic::from_mapping(&graph, &mapping, &m, 0.1).is_none());
    }
}
