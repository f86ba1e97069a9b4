//! Multipath quality: Figs. 8, 9, 10a and 10b.

use netsim::metrics::{Cdf, Summary};
use sciera_topology::ases::fig8_vantages;
use sciera_topology::links::build_control_graph;
use scion_control::beacon::{BeaconConfig, BeaconEngine};
use scion_control::combine::combine_paths;
use scion_control::epoch::EpochPathDb;
use scion_control::fullpath::paper_disjointness;
use scion_proto::addr::IsdAsn;

use crate::campaign::MeasurementStore;

/// A square matrix over the Fig. 8 vantage set.
#[derive(Debug, Clone)]
pub struct VantageMatrix {
    /// Row/column labels (source = row).
    pub vantages: Vec<IsdAsn>,
    /// `values[src][dst]`; diagonal unused.
    pub values: Vec<Vec<u32>>,
}

impl VantageMatrix {
    /// Renders as an aligned table like the paper's heatmaps.
    pub fn to_table(&self, title: &str) -> String {
        let mut s = format!("{title}\n{:>12}", "src\\dst");
        for v in &self.vantages {
            s.push_str(&format!("{:>11}", v.to_string()));
        }
        s.push('\n');
        for (i, v) in self.vantages.iter().enumerate() {
            s.push_str(&format!("{:>12}", v.to_string()));
            for j in 0..self.vantages.len() {
                if i == j {
                    s.push_str(&format!("{:>11}", "-"));
                } else {
                    s.push_str(&format!("{:>11}", self.values[i][j]));
                }
            }
            s.push('\n');
        }
        s
    }

    /// The (src, dst) cell.
    pub fn get(&self, src: IsdAsn, dst: IsdAsn) -> Option<u32> {
        let i = self.vantages.iter().position(|v| *v == src)?;
        let j = self.vantages.iter().position(|v| *v == dst)?;
        Some(self.values[i][j])
    }
}

/// Figure 8: the maximum number of active paths observed per vantage pair.
pub fn fig8(store: &MeasurementStore) -> VantageMatrix {
    matrix_from(store, |counts| counts.iter().copied().max().unwrap_or(0))
}

/// Figure 9: the median deviation from the maximum active-path count.
pub fn fig9(store: &MeasurementStore) -> VantageMatrix {
    matrix_from(store, |counts| {
        let max = counts.iter().copied().max().unwrap_or(0);
        let mut devs: Vec<u32> = counts.iter().map(|&c| max - c).collect();
        devs.sort_unstable();
        devs.get(devs.len() / 2).copied().unwrap_or(0)
    })
}

fn matrix_from(store: &MeasurementStore, f: impl Fn(&[u32]) -> u32) -> VantageMatrix {
    let vantages = fig8_vantages();
    let n = vantages.len();
    let mut values = vec![vec![0u32; n]; n];
    for (i, &s) in vantages.iter().enumerate() {
        for (j, &d) in vantages.iter().enumerate() {
            if i == j {
                continue;
            }
            if let Some(p) = store.pair(s, d) {
                values[i][j] = f(&p.active_counts);
            }
        }
    }
    VantageMatrix { vantages, values }
}

/// Figure 10a: CDF of the latency inflation d₂/d₁ — the second-lowest over
/// lowest per-path minimum RTT for each AS pair.
#[derive(Debug, Clone)]
pub struct Fig10a {
    /// Per-pair inflation values, ascending.
    pub inflations: Vec<f64>,
    /// Rendered CDF.
    pub cdf: Cdf,
    /// Fraction of pairs with inflation < 1.05 (paper: ~40 % "close to 1").
    pub frac_near_one: f64,
    /// Fraction of pairs with inflation < 1.2 (paper: ~80 %).
    pub frac_below_1_2: f64,
}

/// Computes Fig. 10a from the campaign's per-path minimum RTTs.
pub fn fig10a(store: &MeasurementStore) -> Fig10a {
    let mut inflations = Vec::new();
    for p in &store.pairs {
        let mut mins: Vec<f64> = p
            .min_rtt_per_path
            .iter()
            .copied()
            .filter(|m| m.is_finite())
            .collect();
        if mins.len() < 2 {
            continue;
        }
        mins.sort_by(|a, b| a.partial_cmp(b).unwrap());
        inflations.push(mins[1] / mins[0]);
    }
    inflations.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = inflations.len() as f64;
    let frac_near_one = inflations.iter().filter(|&&x| x < 1.05).count() as f64 / n;
    let frac_below_1_2 = inflations.iter().filter(|&&x| x < 1.2).count() as f64 / n;
    let mut s = Summary::new();
    for &x in &inflations {
        s.record(x.min(3.0));
    }
    Fig10a {
        cdf: s.to_cdf(60),
        inflations,
        frac_near_one,
        frac_below_1_2,
    }
}

/// Figure 10b: CDF of pairwise path disjointness over all path pairs of
/// every vantage pair.
#[derive(Debug, Clone)]
pub struct Fig10b {
    /// Rendered CDF of disjointness values in [0, 1].
    pub cdf: Cdf,
    /// Fraction of fully disjoint path pairs (paper: ~30 %).
    pub frac_fully_disjoint: f64,
    /// Fraction with disjointness ≥ 0.7 (paper: ~80 %).
    pub frac_above_0_7: f64,
    /// Path pairs sampled.
    pub samples: usize,
}

/// Computes Fig. 10b directly from the combined path sets (independent of
/// campaign timing). `per_pair_cap` bounds the quadratic pair enumeration.
pub fn fig10b(candidates_per_origin: usize, per_pair_cap: usize) -> Fig10b {
    let topo = build_control_graph();
    let store = BeaconEngine::new(
        &topo.graph,
        1_700_000_000,
        BeaconConfig {
            candidates_per_origin,
            ..Default::default()
        },
    )
    .run()
    .expect("beaconing succeeds");
    let db = EpochPathDb::new(store);
    let vantages = fig8_vantages();
    let mut s = Summary::new();
    let mut fully = 0usize;
    let mut above = 0usize;
    let mut total = 0usize;
    for &src in &vantages {
        for &dst in &vantages {
            if src == dst {
                continue;
            }
            let paths = db.paths(src, dst, per_pair_cap);
            // Guard: the memoized DB must reproduce the direct
            // combinator's path set for the figure (debug builds only).
            debug_assert_eq!(
                paths.len(),
                combine_paths(db.snapshot().store(), src, dst, per_pair_cap).len(),
                "memoized path count diverged for {src}->{dst}"
            );
            for i in 0..paths.len() {
                for j in i + 1..paths.len() {
                    let d = paper_disjointness(&paths[i], &paths[j]);
                    s.record(d);
                    total += 1;
                    if d >= 0.999 {
                        fully += 1;
                    }
                    if d >= 0.7 {
                        above += 1;
                    }
                }
            }
        }
    }
    Fig10b {
        cdf: s.to_cdf(50),
        frac_fully_disjoint: fully as f64 / total.max(1) as f64,
        frac_above_0_7: above as f64 / total.max(1) as f64,
        samples: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignConfig};
    use scion_proto::addr::ia;

    fn store() -> MeasurementStore {
        Campaign::new(CampaignConfig::quick()).run()
    }

    #[test]
    fn fig8_matrix_filled_and_min_two() {
        let m = fig8(&store());
        assert_eq!(m.vantages.len(), 9);
        for (i, _) in m.vantages.iter().enumerate() {
            for (j, _) in m.vantages.iter().enumerate() {
                if i != j {
                    assert!(
                        m.values[i][j] >= 2,
                        "({i},{j}) has {} paths; paper: at least 2 everywhere",
                        m.values[i][j]
                    );
                }
            }
        }
        let table = m.to_table("fig8");
        assert!(table.contains("71-2:0:3b"));
    }

    #[test]
    fn fig9_mostly_zero_with_incident_peaks() {
        let s = store();
        let m9 = fig9(&s);
        let mut zeros = 0;
        let mut cells = 0;
        for i in 0..9 {
            for j in 0..9 {
                if i == j {
                    continue;
                }
                cells += 1;
                if m9.values[i][j] == 0 {
                    zeros += 1;
                }
            }
        }
        // "For most AS pairs, the median deviation is 0" — the quick
        // campaign compresses the incidents, so require a healthy zero
        // population rather than a strict majority (the full 25-day run in
        // EXPERIMENTS.md lands near the paper's split).
        assert!(
            zeros * 8 >= cells,
            "a sizeable share of cells should be 0, got {zeros}/{cells}"
        );
        // The cable-cut pair shows a nonzero deviation (its magnitude
        // scales with the candidate richness; the full-size run is recorded
        // in EXPERIMENTS.md).
        let dj_sg = m9.get(ia("71-2:0:3b"), ia("71-2:0:3d")).unwrap();
        assert!(
            dj_sg > 0,
            "DJ->SG median deviation must reflect the cable cut"
        );
    }

    #[test]
    fn fig10a_shape() {
        let f = fig10a(&store());
        assert!(f.inflations.len() > 100);
        assert!(
            f.frac_near_one > 0.15,
            "near-1 fraction {}",
            f.frac_near_one
        );
        assert!(
            f.frac_below_1_2 > 0.5,
            "below-1.2 fraction {}",
            f.frac_below_1_2
        );
        assert!(f.inflations.iter().all(|&x| x >= 1.0));
    }

    #[test]
    fn fig10b_shape() {
        let f = fig10b(8, 30);
        assert!(f.samples > 1000);
        assert!(
            f.frac_fully_disjoint > 0.02,
            "fully disjoint {}",
            f.frac_fully_disjoint
        );
        assert!(f.frac_above_0_7 > 0.6, "≥0.7 fraction {}", f.frac_above_0_7);
        // CDF covers [0,1].
        assert!(f.cdf.points.last().unwrap().1 >= 0.999);
    }
}
