//! Fabric topologies: how external ports, routers, inter-router links,
//! and per-stage forwarding tables fit together.
//!
//! Every topology is built from unmodified 4-port routers. Fabric-level
//! forwarding is expressed entirely through each router's longest-prefix
//! tables over the experiment address scheme
//!
//! ```text
//! dst = 10.<d>.<m>.x      d = destination external port
//!                         m = middle-stage (spray) choice
//! ```
//!
//! The spray decision is made once, at injection, by stamping `m` into
//! the third octet (and recomputing the header checksum); after that the
//! packet is self-routing: ingress routers match `/24` prefixes `(d, m)`
//! to pick the uplink, middle and egress routers match `/16` on `d`
//! alone. A lookup miss (forced by raw-chaos) falls back to the default
//! route — uplink 0 at the ingress stage, which still reaches the
//! correct egress router, so misrouting self-heals within the fabric.

use raw_lookup::RouteEntry;
use raw_net::Packet;
use raw_xbar::NPORTS;

/// The fabric shapes the experiments compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// One 4-port router, no links: the paper's baseline, run through
    /// the same harness so comparisons share every code path.
    Single4,
    /// 8 external ports from 6 routers: 4 leaves (2 external ports + 2
    /// uplinks each) over 2 spines — the folded-Clos (leaf-spine)
    /// variant. Same-leaf traffic switches locally in one hop.
    Folded8,
    /// 16 external ports from 12 routers: the full 3-stage Clos with 4
    /// ingress, 4 middle, and 4 egress routers (§8.5's "larger router
    /// out of multiple of these small 4-port routers").
    Clos16,
    /// 64 external ports from 80 routers: the 5-stage recursive Clos
    /// (folded fat-tree) built by replacing each middle router of a
    /// 3-stage Clos with a full 16-port Clos plane. Radix-4 routers
    /// force `2k-1` stages for `4^k` ports; `k = 3` here.
    Clos64,
    /// 256 external ports from 448 routers: the 7-stage (`k = 4`)
    /// recursion of the same builder — the largest fabric the
    /// `10.<d>.<m>.x` address octets can label.
    Clos256,
}

impl Topology {
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Single4 => "single4",
            Topology::Folded8 => "folded8",
            Topology::Clos16 => "clos16",
            Topology::Clos64 => "clos64",
            Topology::Clos256 => "clos256",
        }
    }

    /// External (fabric-facing) port count.
    pub fn ext_ports(&self) -> usize {
        match self {
            Topology::Single4 => 4,
            Topology::Folded8 => 8,
            Topology::Clos16 => 16,
            Topology::Clos64 => 64,
            Topology::Clos256 => 256,
        }
    }

    pub fn routers(&self) -> usize {
        match self {
            Topology::Single4 => 1,
            Topology::Folded8 => 6,
            Topology::Clos16 => 12,
            Topology::Clos64 => 80,
            Topology::Clos256 => 448,
        }
    }

    /// Number of middle-stage (spray) choices at injection. For the
    /// recursive Clos fabrics a spray value picks a whole path — plane
    /// and sub-plane — so it exceeds the router radix and groups of
    /// `spray_width / 4` consecutive values share one ingress uplink.
    pub fn spray_width(&self) -> usize {
        match self {
            Topology::Single4 => 1,
            Topology::Folded8 => 2,
            Topology::Clos16 => 4,
            Topology::Clos64 => 16,
            Topology::Clos256 => 64,
        }
    }

    /// Distinct pipeline stage levels (`RouterSpec::stage` values).
    /// Cross-fabric hop counts equal this for the feed-forward Clos
    /// family; the folded leaf-spine fabric revisits stage 0, so its
    /// longest path is 3 routers over 2 levels.
    pub fn stages(&self) -> usize {
        match self {
            Topology::Single4 => 1,
            Topology::Folded8 => 2,
            Topology::Clos16 => 3,
            Topology::Clos64 => 5,
            Topology::Clos256 => 7,
        }
    }

    /// Recursion depth `k` of the generic Clos builder (`4^k` ports,
    /// `2k-1` stages), when this topology is one of the recursive
    /// family.
    pub(crate) fn clos_levels(&self) -> Option<u32> {
        match self {
            Topology::Clos64 => Some(3),
            Topology::Clos256 => Some(4),
            _ => None,
        }
    }
}

/// One unidirectional inter-router link: sender `(router, output port)`
/// to receiver `(router, input port)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkSpec {
    pub from: (usize, usize),
    pub to: (usize, usize),
}

/// One router's place in the fabric.
#[derive(Clone, Debug)]
pub struct RouterSpec {
    /// Pipeline stage, 0 = ingress/leaf. Three-stage fabrics use
    /// 0/1/2 = ingress/middle/egress; the recursive Clos fabrics number
    /// stages 0..`Topology::stages()` left to right.
    pub stage: usize,
    /// The router's forwarding table (always ends with a default route).
    pub routes: Vec<RouteEntry>,
}

/// The complete wiring of a fabric.
#[derive(Clone, Debug)]
pub struct TopologyPlan {
    pub topology: Topology,
    pub routers: Vec<RouterSpec>,
    pub links: Vec<LinkSpec>,
    /// External input `e` attaches to router input `ext_in[e]`.
    pub ext_in: Vec<(usize, usize)>,
    /// External output `d` drains from router output `ext_out[d]`.
    pub ext_out: Vec<(usize, usize)>,
    /// For stage-0 router `r`, `uplinks[r][m]` is the link index that
    /// carries spray choice `m` (empty for other stages).
    pub uplinks: Vec<Vec<usize>>,
    /// `(router, input port) → link` index, built once at plan time so
    /// the per-boundary lookups are O(1) instead of scans over `links`.
    into_map: Vec<[Option<usize>; NPORTS]>,
    /// `(router, output port) → link` index.
    out_map: Vec<[Option<usize>; NPORTS]>,
}

/// Destination address for external port `d` via middle stage `m`.
pub fn fabric_addr(d: u8, m: u8) -> u32 {
    0x0a00_0001 | ((d as u32) << 16) | ((m as u32) << 8)
}

/// The destination external port encoded in a packet's second octet.
pub fn dst_ext_port(p: &Packet) -> usize {
    ((p.header.dst >> 16) & 0xff) as usize
}

/// Stamp the spray choice into the third destination octet, keeping the
/// header checksum valid (the stamp happens before the first hop, so no
/// router ever sees the pre-stamp checksum).
pub fn stamp_middle(p: &mut Packet, m: u8) {
    p.header.dst = (p.header.dst & 0xffff_00ff) | ((m as u32) << 8);
    p.header.checksum = p.header.compute_checksum();
}

fn route16(d: u8, port: u32) -> RouteEntry {
    RouteEntry::new(0x0a00_0000 | ((d as u32) << 16), 16, port)
}

fn route24(d: u8, m: u8, port: u32) -> RouteEntry {
    RouteEntry::new(
        0x0a00_0000 | ((d as u32) << 16) | ((m as u32) << 8),
        24,
        port,
    )
}

fn default_route(port: u32) -> RouteEntry {
    RouteEntry::new(0, 0, port)
}

/// Forwarding table shared by every router of Clos stage `s` in a
/// `2k-1`-stage recursive Clos. Ascending stages (`s < k-1`) steer on
/// one base-4 digit of the sprayed middle octet (full `/24` tables —
/// the `10.<d>.<m>.x` scheme puts `m` below `d`, so matching `m` alone
/// is not prefix-expressible); the middle and descending stages are
/// self-routing on one digit of the destination port (`/16` tables).
fn clos_stage_routes(s: usize, k: u32) -> Vec<RouteEntry> {
    let ports = 4usize.pow(k);
    let spray = 4usize.pow(k - 1);
    let kk = k as usize;
    let mut routes = Vec::new();
    if s + 1 < kk {
        let div = 4usize.pow((kk - 2 - s) as u32);
        for d in 0..ports {
            for m in 0..spray {
                routes.push(route24(d as u8, m as u8, ((m / div) % 4) as u32));
            }
        }
    } else {
        let div = 4usize.pow((2 * kk - 2 - s) as u32);
        for d in 0..ports {
            routes.push(route16(d as u8, ((d / div) % 4) as u32));
        }
    }
    routes.push(default_route(0));
    routes
}

/// Recursively wire a `2kk-1`-stage sub-Clos occupying stages
/// `so..so+2kk-1` and per-stage router slots `x0..x0 + 4^(kk-1)`.
/// `w_stage` is the full fabric's routers-per-stage (global router
/// index = `stage * w_stage + slot`). Ingress router `i`'s output `p`
/// enters plane `p`; plane egress `y`'s output `o` reaches egress
/// router `4y + o` — the textbook fat-tree butterfly at every level.
fn clos_wire(kk: usize, so: usize, x0: usize, w_stage: usize, links: &mut Vec<LinkSpec>) {
    if kk == 1 {
        return;
    }
    let sub = 4usize.pow((kk - 2) as u32);
    let my_w = 4 * sub;
    for i in 0..my_w {
        for p in 0..4 {
            links.push(LinkSpec {
                from: (so * w_stage + x0 + i, p),
                to: ((so + 1) * w_stage + x0 + p * sub + i / 4, i % 4),
            });
        }
    }
    for p in 0..4 {
        clos_wire(kk - 1, so + 1, x0 + p * sub, w_stage, links);
    }
    let es = so + 2 * kk - 2;
    for p in 0..4 {
        for y in 0..sub {
            for o in 0..4 {
                links.push(LinkSpec {
                    from: ((es - 1) * w_stage + x0 + p * sub + y, o),
                    to: (es * w_stage + x0 + 4 * y + o, p),
                });
            }
        }
    }
}

/// Build a recursive `2k-1`-stage Clos plan (`Clos64`, `Clos256`).
fn clos_plan(t: Topology, k: u32) -> TopologyPlan {
    let w = 4usize.pow(k - 1);
    let stages = 2 * k as usize - 1;
    let spray = t.spray_width();
    let mut routers = Vec::with_capacity(stages * w);
    for s in 0..stages {
        let routes = clos_stage_routes(s, k);
        for _ in 0..w {
            routers.push(RouterSpec {
                stage: s,
                routes: routes.clone(),
            });
        }
    }
    let mut links = Vec::new();
    clos_wire(k as usize, 0, 0, w, &mut links);
    // Spray `m` leaves ingress router `x` through output `m / (spray/4)`
    // (the high base-4 digit of `m`): groups of `spray/4` consecutive
    // spray values share one physical uplink, diverging at later stages.
    let mut out_of = vec![[usize::MAX; NPORTS]; stages * w];
    for (li, l) in links.iter().enumerate() {
        out_of[l.from.0][l.from.1] = li;
    }
    let mut uplinks = vec![Vec::new(); stages * w];
    for (x, up) in uplinks.iter_mut().enumerate().take(w) {
        for m in 0..spray {
            up.push(out_of[x][m / (spray / 4)]);
        }
    }
    let ext_in = (0..t.ext_ports()).map(|e| (e / 4, e % 4)).collect();
    let ext_out = (0..t.ext_ports())
        .map(|d| ((stages - 1) * w + d / 4, d % 4))
        .collect();
    TopologyPlan::new(t, routers, links, ext_in, ext_out, uplinks)
}

/// Build the full wiring and per-router tables for a topology.
pub fn plan(t: Topology) -> TopologyPlan {
    if let Some(k) = t.clos_levels() {
        return clos_plan(t, k);
    }
    let mut routers = Vec::new();
    let mut links = Vec::new();
    let mut uplinks = vec![Vec::new(); t.routers()];
    let (ext_in, ext_out);
    match t {
        Topology::Single4 => {
            let mut routes: Vec<RouteEntry> =
                (0..NPORTS as u8).map(|d| route16(d, d as u32)).collect();
            routes.push(default_route(0));
            routers.push(RouterSpec { stage: 2, routes });
            ext_in = (0..NPORTS).map(|p| (0, p)).collect();
            ext_out = (0..NPORTS).map(|p| (0, p)).collect();
        }
        Topology::Clos16 => {
            // Routers 0-3 ingress, 4-7 middle, 8-11 egress.
            for (i, up) in uplinks.iter_mut().enumerate().take(4) {
                let mut routes = Vec::new();
                for d in 0..16u8 {
                    for m in 0..4u8 {
                        routes.push(route24(d, m, m as u32));
                    }
                }
                routes.push(default_route(0));
                routers.push(RouterSpec { stage: 0, routes });
                // Ingress i's output m feeds middle m's input i.
                for m in 0..4 {
                    up.push(links.len());
                    links.push(LinkSpec {
                        from: (i, m),
                        to: (4 + m, i),
                    });
                }
            }
            for _m in 0..4 {
                let mut routes: Vec<RouteEntry> =
                    (0..16u8).map(|d| route16(d, (d / 4) as u32)).collect();
                routes.push(default_route(0));
                routers.push(RouterSpec { stage: 1, routes });
            }
            // Middle m's output e feeds egress e's input m.
            for m in 0..4 {
                for e in 0..4 {
                    links.push(LinkSpec {
                        from: (4 + m, e),
                        to: (8 + e, m),
                    });
                }
            }
            for _e in 0..4 {
                let mut routes: Vec<RouteEntry> =
                    (0..16u8).map(|d| route16(d, (d % 4) as u32)).collect();
                routes.push(default_route(0));
                routers.push(RouterSpec { stage: 2, routes });
            }
            ext_in = (0..16).map(|e| (e / 4, e % 4)).collect();
            ext_out = (0..16).map(|d| (8 + d / 4, d % 4)).collect();
        }
        Topology::Folded8 => {
            // Routers 0-3 leaves, 4-5 spines. Leaf l owns external
            // ports {2l, 2l+1} on its ports 0-1; ports 2-3 are uplinks.
            for l in 0..4u8 {
                let mut routes = Vec::new();
                for d in 0..8u8 {
                    if d / 2 == l {
                        routes.push(route16(d, (d % 2) as u32));
                    } else {
                        for m in 0..2u8 {
                            routes.push(route24(d, m, 2 + m as u32));
                        }
                    }
                }
                routes.push(default_route(0));
                routers.push(RouterSpec { stage: 0, routes });
            }
            for _s in 0..2 {
                let mut routes: Vec<RouteEntry> =
                    (0..8u8).map(|d| route16(d, (d / 2) as u32)).collect();
                routes.push(default_route(0));
                routers.push(RouterSpec { stage: 1, routes });
            }
            for (l, up) in uplinks.iter_mut().enumerate().take(4) {
                for s in 0..2usize {
                    up.push(links.len());
                    links.push(LinkSpec {
                        from: (l, 2 + s),
                        to: (4 + s, l),
                    });
                }
            }
            for s in 0..2usize {
                for l in 0..4usize {
                    links.push(LinkSpec {
                        from: (4 + s, l),
                        to: (l, 2 + s),
                    });
                }
            }
            ext_in = (0..8).map(|e| (e / 2, e % 2)).collect();
            ext_out = (0..8).map(|d| (d / 2, d % 2)).collect();
        }
        Topology::Clos64 | Topology::Clos256 => unreachable!("recursive Clos handled above"),
    }
    TopologyPlan::new(t, routers, links, ext_in, ext_out, uplinks)
}

impl TopologyPlan {
    /// Assemble a plan: index the wiring into the `(router, port) → link`
    /// maps and run the structural sanity checks.
    pub fn new(
        topology: Topology,
        routers: Vec<RouterSpec>,
        links: Vec<LinkSpec>,
        ext_in: Vec<(usize, usize)>,
        ext_out: Vec<(usize, usize)>,
        uplinks: Vec<Vec<usize>>,
    ) -> TopologyPlan {
        let mut into_map = vec![[None; NPORTS]; routers.len()];
        let mut out_map = vec![[None; NPORTS]; routers.len()];
        for (li, l) in links.iter().enumerate() {
            // validate() re-checks bounds and uniqueness with real
            // messages; indexing here would just panic earlier.
            if l.to.0 < routers.len() && l.to.1 < NPORTS {
                into_map[l.to.0][l.to.1] = Some(li);
            }
            if l.from.0 < routers.len() && l.from.1 < NPORTS {
                out_map[l.from.0][l.from.1] = Some(li);
            }
        }
        let p = TopologyPlan {
            topology,
            routers,
            links,
            ext_in,
            ext_out,
            uplinks,
            into_map,
            out_map,
        };
        p.validate();
        p
    }
    /// Structural sanity: every router port is used at most once on
    /// each side, external attachments never collide with links, and
    /// stage-0 routers expose exactly `spray_width` uplinks.
    fn validate(&self) {
        let n = self.routers.len();
        assert_eq!(n, self.topology.routers());
        assert_eq!(self.ext_in.len(), self.topology.ext_ports());
        assert_eq!(self.ext_out.len(), self.topology.ext_ports());
        let mut in_used = vec![[false; NPORTS]; n];
        let mut out_used = vec![[false; NPORTS]; n];
        for l in &self.links {
            assert!(l.from.0 < n && l.from.1 < NPORTS, "bad link source {l:?}");
            assert!(l.to.0 < n && l.to.1 < NPORTS, "bad link target {l:?}");
            assert!(
                !out_used[l.from.0][l.from.1],
                "output {:?} feeds two links",
                l.from
            );
            assert!(
                !in_used[l.to.0][l.to.1],
                "input {:?} fed by two links",
                l.to
            );
            out_used[l.from.0][l.from.1] = true;
            in_used[l.to.0][l.to.1] = true;
        }
        for &(r, p) in &self.ext_in {
            assert!(!in_used[r][p], "external input collides with a link");
            in_used[r][p] = true;
        }
        for &(r, p) in &self.ext_out {
            assert!(!out_used[r][p], "external output collides with a link");
            out_used[r][p] = true;
        }
        let spray = self.topology.spray_width();
        for (r, spec) in self.routers.iter().enumerate() {
            let expect = if spec.stage == 0 && spray > 1 {
                spray
            } else {
                0
            };
            assert_eq!(self.uplinks[r].len(), expect, "router {r} uplink count");
            for (m, &li) in self.uplinks[r].iter().enumerate() {
                assert_eq!(self.links[li].from.0, r);
                assert_eq!(self.routers[self.links[li].to.0].stage, 1);
                if self.topology.clos_levels().is_some() {
                    // Recursive Clos: groups of `spray/4` consecutive
                    // spray values share the uplink at the port named
                    // by the high base-4 digit of `m`; the RV605 walk
                    // proves the tables agree with this map.
                    assert_eq!(self.links[li].from.1, m / (spray / 4));
                } else {
                    // Three-stage fabrics: uplink m lands on
                    // middle/spine router m exactly.
                    assert_eq!(self.links[li].to.0, self.stage1_router(m));
                }
            }
        }
    }

    fn stage1_router(&self, m: usize) -> usize {
        self.routers
            .iter()
            .enumerate()
            .filter(|(_, s)| s.stage == 1)
            .map(|(i, _)| i)
            .nth(m)
            .expect("middle router m exists")
    }

    /// The link arriving at router input `(r, port)`, if any.
    pub fn link_into(&self, r: usize, port: usize) -> Option<usize> {
        *self.into_map.get(r).and_then(|m| m.get(port))?
    }

    /// The link leaving router output `(r, port)`, if any.
    pub fn link_out_of(&self, r: usize, port: usize) -> Option<usize> {
        *self.out_map.get(r).and_then(|m| m.get(port))?
    }

    /// The scan `link_into` replaced — kept as the oracle the index
    /// maps are tested against.
    #[cfg(test)]
    fn link_into_scan(&self, r: usize, port: usize) -> Option<usize> {
        self.links.iter().position(|l| l.to == (r, port))
    }

    #[cfg(test)]
    fn link_out_of_scan(&self, r: usize, port: usize) -> Option<usize> {
        self.links.iter().position(|l| l.from == (r, port))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_lookup::PatriciaTable;

    /// Build every router's trie once, outside the per-pair loops below.
    fn build_tables(plan: &TopologyPlan) -> Vec<PatriciaTable> {
        plan.routers
            .iter()
            .map(|r| PatriciaTable::build(&r.routes))
            .collect()
    }

    /// Walk a stamped packet's address through the per-router tables and
    /// links, router by router, and return the external output it
    /// reaches (purely a model of the tables — no simulation).
    fn model_route(
        plan: &TopologyPlan,
        tables: &[PatriciaTable],
        src_ext: usize,
        d: u8,
        m: u8,
    ) -> (usize, usize) {
        let addr = fabric_addr(d, m);
        let (mut r, _) = plan.ext_in[src_ext];
        let mut hops = 0;
        loop {
            let out = tables[r]
                .lookup(addr)
                .expect("default route always matches") as usize;
            hops += 1;
            match plan.link_out_of(r, out) {
                Some(li) => r = plan.links[li].to.0,
                None => {
                    let ext = plan
                        .ext_out
                        .iter()
                        .position(|&(er, ep)| (er, ep) == (r, out))
                        .expect("non-link output must be external");
                    return (ext, hops);
                }
            }
            assert!(
                hops <= plan.topology.stages() + 1,
                "routing loop for d={d} m={m}"
            );
        }
    }

    #[test]
    fn every_topology_routes_every_pair_through_every_middle() {
        for t in [
            Topology::Single4,
            Topology::Folded8,
            Topology::Clos16,
            Topology::Clos64,
        ] {
            let p = plan(t);
            let tables = build_tables(&p);
            for src in 0..t.ext_ports() {
                for d in 0..t.ext_ports() as u8 {
                    for m in 0..t.spray_width() as u8 {
                        let (ext, hops) = model_route(&p, &tables, src, d, m);
                        assert_eq!(ext, d as usize, "{t:?}: {src}->{d} via {m} misrouted");
                        let max_hops = match t {
                            Topology::Single4 => 1,
                            Topology::Folded8 => 3,
                            _ => t.stages(),
                        };
                        assert!(hops <= max_hops, "{t:?}: {hops} hops");
                    }
                }
            }
        }
    }

    #[test]
    fn folded_clos_switches_local_traffic_in_one_hop() {
        let p = plan(Topology::Folded8);
        let tables = build_tables(&p);
        for leaf in 0..4 {
            let (_, hops) = model_route(&p, &tables, 2 * leaf, (2 * leaf + 1) as u8, 0);
            assert_eq!(hops, 1, "same-leaf traffic must not climb to a spine");
        }
        // Cross-leaf traffic crosses exactly 3 routers (leaf, spine, leaf).
        let (_, hops) = model_route(&p, &tables, 0, 7, 1);
        assert_eq!(hops, 3);
    }

    #[test]
    fn clos16_has_the_paper_shape() {
        let p = plan(Topology::Clos16);
        assert_eq!(p.routers.len(), 12);
        assert_eq!(p.links.len(), 32);
        assert_eq!(p.routers.iter().filter(|r| r.stage == 0).count(), 4);
        assert_eq!(p.routers.iter().filter(|r| r.stage == 1).count(), 4);
        assert_eq!(p.routers.iter().filter(|r| r.stage == 2).count(), 4);
        // Default-route fallback at the ingress stage still reaches the
        // right egress router: middle 0 serves every destination.
        let tables = build_tables(&p);
        for d in 0..16u8 {
            let (ext, _) = model_route(&p, &tables, 5, d, 0);
            assert_eq!(ext, d as usize);
        }
    }

    #[test]
    fn clos64_has_the_recursive_shape() {
        let p = plan(Topology::Clos64);
        assert_eq!(p.routers.len(), 80);
        assert_eq!(p.links.len(), 256);
        for s in 0..5 {
            assert_eq!(p.routers.iter().filter(|r| r.stage == s).count(), 16);
        }
        // Every spray value reaches its own stage-2 (middle) router:
        // the 16 sprays from one ingress cover all 16 middle routers.
        let tables = build_tables(&p);
        let mut middles_seen = [false; 16];
        for m in 0..16u8 {
            let addr = fabric_addr(37, m);
            let (mut r, _) = p.ext_in[5];
            for _ in 0..2 {
                let hit = tables[r].lookup(addr);
                let li = p.link_out_of(r, hit.unwrap() as usize).unwrap();
                r = p.links[li].to.0;
            }
            assert_eq!(p.routers[r].stage, 2);
            middles_seen[r - 32] = true;
        }
        assert!(middles_seen.iter().all(|&b| b), "{middles_seen:?}");
        // Consecutive groups of 4 sprays share one physical uplink.
        for r in 0..16 {
            for m in 0..16 {
                assert_eq!(p.uplinks[r][m], p.uplinks[r][4 * (m / 4)]);
            }
            let distinct: std::collections::HashSet<_> = p.uplinks[r].iter().collect();
            assert_eq!(distinct.len(), 4);
        }
        // Default-route fallback (middle 0) still delivers everywhere.
        for d in 0..64u8 {
            let (ext, hops) = model_route(&p, &tables, 17, d, 0);
            assert_eq!(ext, d as usize);
            assert_eq!(hops, 5);
        }
    }

    #[test]
    fn clos256_shape_and_sampled_routes() {
        let p = plan(Topology::Clos256);
        assert_eq!(p.routers.len(), 448);
        assert_eq!(p.links.len(), 1536);
        for s in 0..7 {
            assert_eq!(p.routers.iter().filter(|r| r.stage == s).count(), 64);
        }
        assert_eq!(p.ext_in.len(), 256);
        assert_eq!(p.ext_out.len(), 256);
        // Exhaustive (src, dst) reachability at a spray sample (the
        // full src x dst x spray space is covered by the RV6xx static
        // walks, which dedupe shared tables; this model-level check
        // keeps the plan builder honest independently of the verifier).
        // All routers of a stage share one table, so build 7 tries,
        // not 448.
        let stage_tables: Vec<PatriciaTable> = (0..7)
            .map(|s| PatriciaTable::build(&p.routers[s * 64].routes))
            .collect();
        for src in (0..256).step_by(17) {
            for d in 0..=255u8 {
                for m in [0u8, 21, 42, 63] {
                    let addr = fabric_addr(d, m);
                    let (mut r, _) = p.ext_in[src];
                    let mut hops = 0;
                    let ext = loop {
                        let out = stage_tables[p.routers[r].stage]
                            .lookup(addr)
                            .expect("default route always matches")
                            as usize;
                        hops += 1;
                        match p.link_out_of(r, out) {
                            Some(li) => r = p.links[li].to.0,
                            None => {
                                break p
                                    .ext_out
                                    .iter()
                                    .position(|&(er, ep)| (er, ep) == (r, out))
                                    .expect("non-link output must be external")
                            }
                        }
                        assert!(hops <= 7, "routing loop for {src}->{d} via {m}");
                    };
                    assert_eq!(ext, d as usize, "{src}->{d} via {m} misrouted");
                    assert_eq!(hops, 7);
                }
            }
        }
    }

    #[test]
    fn link_index_maps_agree_with_the_scan_on_every_shipped_topology() {
        for t in [
            Topology::Single4,
            Topology::Folded8,
            Topology::Clos16,
            Topology::Clos64,
        ] {
            let p = plan(t);
            // One past NPORTS probes the out-of-range path too.
            for r in 0..p.routers.len() {
                for port in 0..=NPORTS {
                    assert_eq!(
                        p.link_into(r, port),
                        p.link_into_scan(r, port),
                        "{t:?} link_into({r}, {port})"
                    );
                    assert_eq!(
                        p.link_out_of(r, port),
                        p.link_out_of_scan(r, port),
                        "{t:?} link_out_of({r}, {port})"
                    );
                }
            }
            assert_eq!(p.link_into(p.routers.len(), 0), None);
            assert_eq!(p.link_out_of(p.routers.len(), 0), None);
        }
    }

    #[test]
    fn stamp_keeps_checksums_valid_and_addresses_decodable() {
        let mut p = Packet::synthetic(raw_workloads::src_addr(3), fabric_addr(13, 0), 64, 64, 9);
        stamp_middle(&mut p, 2);
        assert!(p.header.checksum_ok());
        assert_eq!(dst_ext_port(&p), 13);
        assert_eq!((p.header.dst >> 8) & 0xff, 2);
        // Stamping is idempotent on the low octets.
        stamp_middle(&mut p, 0);
        assert!(p.header.checksum_ok());
        assert_eq!(dst_ext_port(&p), 13);
    }
}
