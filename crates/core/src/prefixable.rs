//! Prefixable subsets and the common prefix `θ(P)` (paper §4.5, Def. 5,
//! Thm. 8).
//!
//! A set `W` is *prefixable* when a permutation of each member's key can be
//! chosen so that all keys share a non-empty common prefix; Thm. 8 shows
//! this is exactly the condition for evaluating `W` with one FS/HS plus SS
//! reorderings. Minimum partitioning into prefixable subsets is NP-hard
//! (Thm. 9, set cover); the greedy here repeatedly picks the attribute that
//! can lead the keys of the most remaining functions — tie-broken by the
//! number of cover sets the induced subset needs, which reproduces the
//! paper's partitions on Q7–Q9.

use crate::cover::{partition_into_cover_sets, ThetaElem};
use crate::spec::WindowSpec;
use wf_common::{AttrSet, OrdElem};

/// The attributes that can appear first in some `perm(WPK) ∘ WOK` of `wf`:
/// any WPK attribute, or the first WOK element when WPK is empty.
pub fn first_attrs(wf: &WindowSpec) -> AttrSet {
    if !wf.wpk().is_empty() {
        wf.wpk().clone()
    } else if let Some(e) = wf.wok().elems().first() {
        AttrSet::from_iter([e.attr])
    } else {
        AttrSet::empty()
    }
}

/// Def. 5: is there a common non-empty prefix across all members? (True
/// iff the members' first-attr sets intersect; members with an empty key
/// make the set non-prefixable — but such functions match everything and
/// never reach `C2`.)
pub fn is_prefixable(specs: &[WindowSpec], idxs: &[usize]) -> bool {
    !theta(specs, idxs).is_empty()
}

/// Compute a maximal common prefix `θ(P)` greedily.
///
/// State per member: the unconsumed part of its WPK (order free) or, once
/// exhausted, the position in its WOK (order and direction fixed). At each
/// step the candidate attributes are intersected across members; direction
/// conflicts (one member's WOK demands DESC, another's ASC) disqualify an
/// attribute. Ties break toward the lowest attribute id. `θ` may not be
/// unique (the paper notes `abc` vs `bac`); this function is deterministic.
pub fn theta(specs: &[WindowSpec], idxs: &[usize]) -> Vec<ThetaElem> {
    #[derive(Clone)]
    struct State {
        remaining_wpk: AttrSet,
        wok_pos: usize,
    }
    let mut states: Vec<State> = idxs
        .iter()
        .map(|&i| State {
            remaining_wpk: specs[i].wpk().clone(),
            wok_pos: 0,
        })
        .collect();
    if states.is_empty() {
        return vec![];
    }
    let mut out: Vec<ThetaElem> = Vec::new();

    loop {
        // Candidate (attr, forced element) pairs per member.
        let mut common: Option<Vec<(wf_common::AttrId, Option<OrdElem>)>> = None;
        for (si, state) in states.iter().enumerate() {
            let spec = &specs[idxs[si]];
            let cands: Vec<(wf_common::AttrId, Option<OrdElem>)> =
                if !state.remaining_wpk.is_empty() {
                    state.remaining_wpk.iter().map(|a| (a, None)).collect()
                } else if let Some(e) = spec.wok().elems().get(state.wok_pos) {
                    vec![(e.attr, Some(*e))]
                } else {
                    vec![] // key exhausted: θ cannot grow
                };
            common = Some(match common {
                None => cands,
                Some(prev) => prev
                    .into_iter()
                    .filter_map(|(a, d)| {
                        cands.iter().find(|(ca, _)| *ca == a).and_then(|(_, cd)| {
                            match (d, cd) {
                                (None, None) => Some((a, None)),
                                (None, Some(e)) => Some((a, Some(*e))),
                                (Some(e), None) => Some((a, Some(e))),
                                (Some(e1), Some(e2)) if e1 == *e2 => Some((a, Some(e1))),
                                _ => None, // direction conflict
                            }
                        })
                    })
                    .collect(),
            });
            if common.as_ref().is_some_and(Vec::is_empty) {
                break;
            }
        }
        let Some(mut cands) = common else { break };
        if cands.is_empty() {
            break;
        }
        cands.sort_by_key(|(a, _)| *a);
        let (attr, forced) = cands[0];
        out.push(match forced {
            Some(e) => ThetaElem::fixed(e),
            None => ThetaElem::free(attr),
        });
        // Advance every member.
        for (si, state) in states.iter_mut().enumerate() {
            let spec = &specs[idxs[si]];
            if !state.remaining_wpk.remove(attr) {
                debug_assert_eq!(
                    spec.wok().elems().get(state.wok_pos).map(|e| e.attr),
                    Some(attr)
                );
                state.wok_pos += 1;
            }
        }
    }
    out
}

/// `θ'`: the maximal prefix of `θ` whose attributes are contained in every
/// listed member's WPK (§4.5.2; the pool for HS hash keys).
pub fn theta_prime<'a>(
    theta: &'a [ThetaElem],
    specs: &[WindowSpec],
    idxs: &[usize],
) -> &'a [ThetaElem] {
    let mut n = 0;
    for t in theta {
        if idxs.iter().all(|&i| specs[i].wpk().contains(t.attr)) {
            n += 1;
        } else {
            break;
        }
    }
    &theta[..n]
}

/// Greedy partition of `idxs` into prefixable subsets: pick the attribute
/// that can lead the most members, tie-broken by (fewest induced cover
/// sets, lowest attribute id); repeat on the remainder. `O(|W|²)` cover
/// checks, as the paper's heuristic.
pub fn partition_into_prefixable(specs: &[WindowSpec], idxs: &[usize]) -> Vec<Vec<usize>> {
    let mut remaining: Vec<usize> = idxs.to_vec();
    let mut out: Vec<Vec<usize>> = Vec::new();
    while !remaining.is_empty() {
        // Count how many remaining members each attribute can lead.
        let mut counts: Vec<(wf_common::AttrId, usize)> = Vec::new();
        for &i in &remaining {
            for a in first_attrs(&specs[i]).iter() {
                match counts.iter_mut().find(|(ca, _)| *ca == a) {
                    Some((_, c)) => *c += 1,
                    None => counts.push((a, 1)),
                }
            }
        }
        if counts.is_empty() {
            // Members with empty keys: each its own (trivially evaluable)
            // subset.
            out.extend(remaining.drain(..).map(|i| vec![i]));
            break;
        }
        let best_count = counts.iter().map(|&(_, c)| c).max().unwrap_or(0);
        let mut best_attr = None;
        let mut best_sets = usize::MAX;
        let mut tied: Vec<wf_common::AttrId> = counts
            .iter()
            .filter(|&&(_, c)| c == best_count)
            .map(|&(a, _)| a)
            .collect();
        tied.sort();
        for a in tied {
            let subset: Vec<usize> = remaining
                .iter()
                .copied()
                .filter(|&i| first_attrs(&specs[i]).contains(a))
                .collect();
            let n_sets = partition_into_cover_sets(specs, &subset, None).len();
            if n_sets < best_sets {
                best_sets = n_sets;
                best_attr = Some(a);
            }
        }
        let attr = best_attr.expect("counts non-empty");
        let (subset, rest): (Vec<usize>, Vec<usize>) = remaining
            .into_iter()
            .partition(|&i| first_attrs(&specs[i]).contains(attr));
        out.push(subset);
        remaining = rest;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_common::{AttrId, SortSpec};

    fn a(i: usize) -> AttrId {
        AttrId::new(i)
    }
    fn key(ids: &[usize]) -> SortSpec {
        SortSpec::new(ids.iter().map(|&i| OrdElem::asc(a(i))).collect())
    }
    fn wf(wpk: &[usize], wok: &[usize]) -> WindowSpec {
        WindowSpec::rank("t", wpk.iter().map(|&i| a(i)).collect(), key(wok))
    }

    #[test]
    fn first_attrs_rules() {
        assert_eq!(
            first_attrs(&wf(&[0, 1], &[2])),
            AttrSet::from_iter([a(0), a(1)])
        );
        assert_eq!(first_attrs(&wf(&[], &[2, 0])), AttrSet::from_iter([a(2)]));
        assert!(first_attrs(&wf(&[], &[])).is_empty());
    }

    /// Q6: {wf1=({item},(date)), wf2=({item},(bill))} is prefixable with
    /// θ=(item). Attrs: item=0, date=1, bill=2.
    #[test]
    fn q6_theta() {
        let specs = vec![wf(&[0], &[1]), wf(&[0], &[2])];
        assert!(is_prefixable(&specs, &[0, 1]));
        let t = theta(&specs, &[0, 1]);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].attr, a(0));
        assert!(t[0].elem.is_none());
    }

    /// Q8's P2 = {wf1=({date,time,ship},ε), wf2=({time,date},ε),
    /// wf5=({date,time,item},(bill,ship))}: θ = (date,time) (both orders
    /// valid; ours picks ascending attr ids). Attrs: date=0, time=1,
    /// ship=2, item=3, bill=4.
    #[test]
    fn q8_theta_two_attrs() {
        let specs = vec![
            wf(&[0, 1, 2], &[]),
            wf(&[1, 0], &[]),
            wf(&[0, 1, 3], &[4, 2]),
        ];
        let t = theta(&specs, &[0, 1, 2]);
        let attrs: Vec<AttrId> = t.iter().map(|e| e.attr).collect();
        assert_eq!(attrs, vec![a(0), a(1)]);
    }

    /// θ stops when one member's key is exhausted.
    #[test]
    fn theta_stops_at_shortest_key() {
        // wf1 = ({a}, ε), wf2 = ({a}, (b)): θ = (a) only.
        let specs = vec![wf(&[0], &[]), wf(&[0], &[1])];
        assert_eq!(theta(&specs, &[0, 1]).len(), 1);
    }

    /// θ can extend into WOK positions, adopting the fixed direction.
    #[test]
    fn theta_extends_into_wok() {
        let d = WindowSpec::rank("d", vec![a(0)], SortSpec::new(vec![OrdElem::desc(a(1))]));
        let e = wf(&[0, 1], &[]); // b direction free
        let specs = vec![d, e];
        let t = theta(&specs, &[0, 1]);
        assert_eq!(t.len(), 2);
        assert_eq!(t[1].attr, a(1));
        assert_eq!(t[1].elem, Some(OrdElem::desc(a(1))));
    }

    #[test]
    fn theta_direction_conflict_blocks_attr() {
        let d1 = WindowSpec::rank("a", vec![], SortSpec::new(vec![OrdElem::desc(a(0))]));
        let d2 = WindowSpec::rank("b", vec![], SortSpec::new(vec![OrdElem::asc(a(0))]));
        assert!(theta(&[d1, d2], &[0, 1]).is_empty());
    }

    #[test]
    fn theta_prime_requires_wpk_membership() {
        // θ = (a, b); only a is in both WPKs.
        let specs = vec![wf(&[0], &[1]), wf(&[0, 1], &[])];
        let t = theta(&specs, &[0, 1]);
        assert_eq!(t.len(), 2);
        let tp = theta_prime(&t, &specs, &[0, 1]);
        assert_eq!(tp.len(), 1);
        assert_eq!(tp[0].attr, a(0));
    }

    /// Q7's C2 partition: the item-led subset {wf3, wf4, wf5} is chosen
    /// over the date/time-led one because it induces a single cover set.
    /// Attrs: date=0, time=1, ship=2, item=3, bill=4.
    #[test]
    fn q7_partition_prefers_fewer_cover_sets() {
        let specs = vec![
            wf(&[0, 1, 2], &[]),     // wf1
            wf(&[1, 0], &[]),        // wf2
            wf(&[3], &[]),           // wf3
            wf(&[], &[3, 4]),        // wf4
            wf(&[0, 1, 3, 4], &[2]), // wf5
        ];
        let parts = partition_into_prefixable(&specs, &[0, 1, 2, 3, 4]);
        assert_eq!(parts.len(), 2);
        let mut first = parts[0].clone();
        first.sort_unstable();
        assert_eq!(first, vec![2, 3, 4], "item-led subset must come first");
        let mut second = parts[1].clone();
        second.sort_unstable();
        assert_eq!(second, vec![0, 1]);
    }

    /// Q9's C2 partition: item(4) then time {wf7,wf8} then bill {wf5,wf6}.
    /// Attrs: date=0, item=1, time=2, bill=3.
    #[test]
    fn q9_partition() {
        let specs = vec![
            wf(&[1], &[3, 0]), // wf1
            wf(&[1, 2], &[0]), // wf2
            wf(&[1], &[2]),    // wf3
            wf(&[], &[1, 0]),  // wf4
            wf(&[3, 0], &[2]), // wf5
            wf(&[3], &[2]),    // wf6
            wf(&[0, 2], &[]),  // wf7
            wf(&[], &[2]),     // wf8
        ];
        let parts = partition_into_prefixable(&specs, &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(parts.len(), 3);
        let normalized: Vec<Vec<usize>> = parts
            .iter()
            .map(|p| {
                let mut v = p.clone();
                v.sort_unstable();
                v
            })
            .collect();
        assert_eq!(
            normalized[0],
            vec![0, 1, 2, 3],
            "item-led subset is largest"
        );
        assert!(normalized.contains(&vec![4, 5]), "bill-led subset");
        assert!(normalized.contains(&vec![6, 7]), "time-led subset");
    }

    #[test]
    fn empty_key_members_become_singletons() {
        let specs = vec![wf(&[], &[]), wf(&[0], &[])];
        let parts = partition_into_prefixable(&specs, &[0, 1]);
        assert_eq!(parts.len(), 2);
    }

    #[test]
    fn non_prefixable_pair_splits() {
        let specs = vec![wf(&[0], &[]), wf(&[1], &[])];
        assert!(!is_prefixable(&specs, &[0, 1]));
        let parts = partition_into_prefixable(&specs, &[0, 1]);
        assert_eq!(parts.len(), 2);
    }
}
