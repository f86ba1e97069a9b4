//! Path selection.
//!
//! Implements the selection strategies the SCIONabled applications expose
//! (Appendix E: `--interactive`, `--sequence`, `--preference`): policy
//! filtering, preference sorting with live RTT estimates, and instant
//! failover when an SCMP interface-down notification arrives — the paper's
//! "switching paths instantly if performance worsens" (§4.7).

use std::collections::HashMap;

use scion_control::fullpath::{disjointness, FullPath};
use scion_control::policy::{PathPolicy, Preference};
use scion_proto::addr::IsdAsn;

use crate::PanError;

/// Exponentially-weighted RTT estimates per path fingerprint.
#[derive(Debug, Clone, Default)]
pub struct RttEstimator {
    estimates: HashMap<String, f64>,
    alpha: f64,
}

impl RttEstimator {
    /// Creates an estimator with the standard EWMA factor.
    pub fn new() -> Self {
        RttEstimator {
            estimates: HashMap::new(),
            alpha: 0.2,
        }
    }

    /// Records an RTT sample (ms) for a path.
    pub fn record(&mut self, fingerprint: &str, rtt_ms: f64) {
        let e = self
            .estimates
            .entry(fingerprint.to_string())
            .or_insert(rtt_ms);
        *e = *e * (1.0 - self.alpha) + rtt_ms * self.alpha;
    }

    /// The current estimate, if any.
    pub fn estimate(&self, fingerprint: &str) -> Option<f64> {
        self.estimates.get(fingerprint).copied()
    }
}

/// Per-path static metadata an AS may advertise (bandwidth, carbon), used
/// by the corresponding preferences. Keyed by `(ISD-AS, ifid)` pairs in a
/// real deployment; the simulation attaches per-path aggregates.
#[derive(Debug, Clone, Default)]
pub struct PathMetadata {
    /// Bottleneck bandwidth estimate, Mbit/s.
    pub bandwidth_mbps: HashMap<String, f64>,
    /// Carbon intensity estimate, gCO₂/GB.
    pub carbon_g_per_gb: HashMap<String, f64>,
}

/// The path selector: holds candidate paths, policy, preference order, and
/// the currently pinned path.
#[derive(Debug, Clone)]
pub struct PathSelector {
    /// All candidate paths (unfiltered, as fetched).
    candidates: Vec<FullPath>,
    /// Filter policy.
    pub policy: PathPolicy,
    /// Sort preference.
    pub preference: Preference,
    /// RTT estimates feeding the latency preference.
    pub rtt: RttEstimator,
    /// Advertised metadata feeding bandwidth/green preferences.
    pub metadata: PathMetadata,
    current: Option<String>,
    /// Fingerprints ruled out by SCMP notifications until refreshed.
    dead: Vec<String>,
}

impl PathSelector {
    /// Creates a selector with defaults (shortest-path preference, empty
    /// policy).
    pub fn new(candidates: Vec<FullPath>) -> Self {
        PathSelector {
            candidates,
            policy: PathPolicy::default(),
            preference: Preference::Shortest,
            rtt: RttEstimator::new(),
            metadata: PathMetadata::default(),
            current: None,
            dead: Vec::new(),
        }
    }

    /// Replaces the candidate set (after a daemon refresh) and clears the
    /// dead list; keeps the pinned path if it still exists.
    pub fn refresh(&mut self, candidates: Vec<FullPath>) {
        self.candidates = candidates;
        self.dead.clear();
        if let Some(cur) = &self.current {
            if !self.candidates.iter().any(|p| &p.fingerprint() == cur) {
                self.current = None;
            }
        }
    }

    /// Usable paths after policy filtering and dead-path exclusion, in
    /// preference order.
    pub fn ranked(&self) -> Vec<&FullPath> {
        let mut usable: Vec<&FullPath> = self
            .candidates
            .iter()
            .filter(|p| self.policy.permits(p))
            .filter(|p| !self.dead.contains(&p.fingerprint()))
            .collect();
        match self.preference {
            Preference::Shortest => usable.sort_by_key(|p| (p.len(), p.fingerprint())),
            Preference::Latency => usable.sort_by(|a, b| {
                let ra = self.rtt.estimate(&a.fingerprint()).unwrap_or(f64::MAX);
                let rb = self.rtt.estimate(&b.fingerprint()).unwrap_or(f64::MAX);
                ra.partial_cmp(&rb)
                    .unwrap()
                    .then_with(|| a.len().cmp(&b.len()))
                    .then_with(|| a.fingerprint().cmp(&b.fingerprint()))
            }),
            Preference::Bandwidth => usable.sort_by(|a, b| {
                let ba = self
                    .metadata
                    .bandwidth_mbps
                    .get(&a.fingerprint())
                    .copied()
                    .unwrap_or(0.0);
                let bb = self
                    .metadata
                    .bandwidth_mbps
                    .get(&b.fingerprint())
                    .copied()
                    .unwrap_or(0.0);
                bb.partial_cmp(&ba)
                    .unwrap()
                    .then_with(|| a.fingerprint().cmp(&b.fingerprint()))
            }),
            Preference::Green => usable.sort_by(|a, b| {
                let ca = self
                    .metadata
                    .carbon_g_per_gb
                    .get(&a.fingerprint())
                    .copied()
                    .unwrap_or(f64::MAX);
                let cb = self
                    .metadata
                    .carbon_g_per_gb
                    .get(&b.fingerprint())
                    .copied()
                    .unwrap_or(f64::MAX);
                ca.partial_cmp(&cb)
                    .unwrap()
                    .then_with(|| a.fingerprint().cmp(&b.fingerprint()))
            }),
            Preference::Disjoint => {
                // Greedy max-min disjointness ordering starting from the
                // shortest path.
                usable.sort_by_key(|p| (p.len(), p.fingerprint()));
                let mut ordered: Vec<&FullPath> = Vec::with_capacity(usable.len());
                while !usable.is_empty() {
                    let next_idx = if ordered.is_empty() {
                        0
                    } else {
                        let mut best = 0;
                        let mut best_score = f64::MIN;
                        for (i, cand) in usable.iter().enumerate() {
                            let score = ordered
                                .iter()
                                .map(|o| disjointness(cand, o))
                                .fold(f64::MAX, f64::min);
                            if score > best_score {
                                best_score = score;
                                best = i;
                            }
                        }
                        best
                    };
                    ordered.push(usable.remove(next_idx));
                }
                usable = ordered;
            }
        }
        usable
    }

    /// The active path: the pinned one if alive, otherwise the best ranked
    /// (which becomes pinned).
    pub fn active(&mut self) -> Result<FullPath, PanError> {
        if let Some(cur) = &self.current {
            if let Some(p) = self
                .candidates
                .iter()
                .find(|p| &p.fingerprint() == cur && !self.dead.contains(cur))
            {
                return Ok(p.clone());
            }
        }
        let best = self
            .ranked()
            .first()
            .cloned()
            .cloned()
            .ok_or_else(|| PanError::NoUsablePath("all paths filtered or dead".into()))?;
        self.current = Some(best.fingerprint());
        Ok(best)
    }

    /// Pins an explicit path choice (`--interactive` selection).
    pub fn pin(&mut self, fingerprint: &str) -> Result<(), PanError> {
        if self
            .candidates
            .iter()
            .any(|p| p.fingerprint() == fingerprint)
        {
            self.current = Some(fingerprint.to_string());
            Ok(())
        } else {
            Err(PanError::NoUsablePath(format!(
                "unknown path {fingerprint}"
            )))
        }
    }

    /// Handles an SCMP `ExternalInterfaceDown`: kills every candidate
    /// crossing `(ia, ifid)` and unpins if affected. Returns how many paths
    /// died — failover is then instant on the next [`PathSelector::active`]
    /// call.
    pub fn interface_down(&mut self, ia: IsdAsn, ifid: u16) -> usize {
        let mut killed = 0;
        for p in &self.candidates {
            let fp = p.fingerprint();
            if !self.dead.contains(&fp) && p.interfaces().contains(&(ia, ifid)) {
                self.dead.push(fp);
                killed += 1;
            }
        }
        if let Some(cur) = &self.current {
            if self.dead.contains(cur) {
                self.current = None;
            }
        }
        killed
    }

    /// Interactive listing: (index, fingerprint, AS sequence, hop count),
    /// what the `bat --interactive` flag shows the user.
    pub fn listing(&self) -> Vec<(usize, String, String, usize)> {
        self.ranked()
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let seq = p
                    .ases()
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(" > ");
                (i, p.fingerprint(), seq, p.len())
            })
            .collect()
    }

    /// Number of live candidates.
    pub fn live_count(&self) -> usize {
        self.ranked().len()
    }

    /// Usable paths ranked by an adaptive (measurement-driven) policy
    /// instead of the static preference order: policy filtering and the
    /// SCMP dead-list still apply, then `policy` orders what remains by
    /// the rolling statistics in `view`. The selector's own
    /// [`Preference`] is ignored for this ranking.
    pub fn adaptive_ranked(
        &self,
        policy: &crate::adaptive::AdaptivePolicy,
        view: &crate::adaptive::PathStatsView,
    ) -> Vec<&FullPath> {
        let usable: Vec<&FullPath> = self
            .candidates
            .iter()
            .filter(|p| self.policy.permits(p))
            .filter(|p| !self.dead.contains(&p.fingerprint()))
            .collect();
        let cands: Vec<crate::adaptive::Candidate> = usable
            .iter()
            .map(|p| crate::adaptive::Candidate::of(p))
            .collect();
        policy
            .rank(view, &cands)
            .into_iter()
            .map(|c| {
                *usable
                    .iter()
                    .find(|p| p.fingerprint() == c.fingerprint)
                    .expect("ranked candidate came from usable")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_control::fullpath::{PathHop, PathKind};
    use scion_proto::addr::ia;

    fn path(id: u16, ases: &[&str]) -> FullPath {
        let hops: Vec<PathHop> = ases
            .iter()
            .enumerate()
            .map(|(i, s)| PathHop {
                ia: ia(s),
                ingress: if i == 0 { 0 } else { id * 10 + i as u16 },
                egress: if i == ases.len() - 1 {
                    0
                } else {
                    id * 10 + i as u16 + 1
                },
            })
            .collect();
        FullPath {
            src: hops.first().unwrap().ia,
            dst: hops.last().unwrap().ia,
            kind: PathKind::CoreTransit,
            uses: Vec::new(),
            hops,
        }
    }

    fn candidates() -> Vec<FullPath> {
        vec![
            path(1, &["71-10", "71-1", "71-11"]),
            path(2, &["71-10", "71-1", "71-2", "71-11"]),
            path(3, &["71-10", "71-3", "71-11"]),
        ]
    }

    #[test]
    fn shortest_preference_ranks_by_length() {
        let s = PathSelector::new(candidates());
        let ranked = s.ranked();
        assert_eq!(ranked.len(), 3);
        assert!(ranked[0].len() <= ranked[1].len());
        assert_eq!(ranked[2].len(), 4);
    }

    #[test]
    fn latency_preference_uses_estimates() {
        let mut s = PathSelector::new(candidates());
        s.preference = Preference::Latency;
        let fps: Vec<String> = s.candidates.iter().map(|p| p.fingerprint()).collect();
        s.rtt.record(&fps[0], 80.0);
        s.rtt.record(&fps[1], 20.0);
        s.rtt.record(&fps[2], 50.0);
        let ranked = s.ranked();
        assert_eq!(ranked[0].fingerprint(), fps[1]);
        assert_eq!(ranked[1].fingerprint(), fps[2]);
    }

    #[test]
    fn ewma_converges() {
        let mut e = RttEstimator::new();
        for _ in 0..100 {
            e.record("p", 10.0);
        }
        assert!((e.estimate("p").unwrap() - 10.0).abs() < 1e-9);
        e.record("p", 110.0);
        let est = e.estimate("p").unwrap();
        assert!(est > 10.0 && est < 110.0, "smoothed: {est}");
    }

    #[test]
    fn failover_on_interface_down() {
        let mut s = PathSelector::new(candidates());
        let first = s.active().unwrap();
        // Kill the link the active path uses at 71-1.
        let (ia_down, if_down) = first.interfaces()[0];
        let killed = s.interface_down(ia_down, if_down);
        assert!(killed >= 1);
        let second = s.active().unwrap();
        assert_ne!(first.fingerprint(), second.fingerprint());
        assert!(!second.interfaces().contains(&(ia_down, if_down)));
    }

    #[test]
    fn all_paths_dead_errors() {
        let mut s = PathSelector::new(vec![path(1, &["71-10", "71-1", "71-11"])]);
        let p = s.active().unwrap();
        let (ia_d, if_d) = p.interfaces()[0];
        s.interface_down(ia_d, if_d);
        assert!(matches!(s.active(), Err(PanError::NoUsablePath(_))));
    }

    #[test]
    fn refresh_restores_dead_paths() {
        let mut s = PathSelector::new(candidates());
        let p = s.active().unwrap();
        let (ia_d, if_d) = p.interfaces()[0];
        s.interface_down(ia_d, if_d);
        s.refresh(candidates());
        assert_eq!(s.live_count(), 3);
    }

    #[test]
    fn pin_and_unknown_pin() {
        let mut s = PathSelector::new(candidates());
        let fp = s.candidates[2].fingerprint();
        s.pin(&fp).unwrap();
        assert_eq!(s.active().unwrap().fingerprint(), fp);
        assert!(s.pin("deadbeef").is_err());
    }

    #[test]
    fn policy_filters_ranked() {
        let mut s = PathSelector::new(candidates());
        s.policy.acl = scion_control::policy::Acl::default().deny("71-1".parse().unwrap());
        let ranked = s.ranked();
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].ases()[1], ia("71-3"));
    }

    #[test]
    fn disjoint_preference_spreads() {
        let mut s = PathSelector::new(candidates());
        s.preference = Preference::Disjoint;
        let ranked = s.ranked();
        // Second pick must be fully disjoint from the first (the 71-3 path
        // shares nothing with the 71-1 paths).
        let d = disjointness(ranked[0], ranked[1]);
        assert!(d > 0.9, "expected near-full disjointness, got {d}");
    }

    #[test]
    fn green_preference_sorts_by_carbon() {
        let mut s = PathSelector::new(candidates());
        s.preference = Preference::Green;
        let fps: Vec<String> = s.candidates.iter().map(|p| p.fingerprint()).collect();
        s.metadata.carbon_g_per_gb.insert(fps[0].clone(), 30.0);
        s.metadata.carbon_g_per_gb.insert(fps[1].clone(), 5.0);
        s.metadata.carbon_g_per_gb.insert(fps[2].clone(), 90.0);
        assert_eq!(s.ranked()[0].fingerprint(), fps[1]);
    }

    #[test]
    fn listing_renders_as_sequences() {
        let s = PathSelector::new(candidates());
        let listing = s.listing();
        assert_eq!(listing.len(), 3);
        assert!(listing[0].2.contains(" > "));
        assert!(listing[0].2.starts_with("71-10"));
    }
}
