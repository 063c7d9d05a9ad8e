//! A path-compressed binary trie (Patricia tree) for longest-prefix-match
//! route lookup.
//!
//! "Traditional implementations of routing tables use a version of
//! Patricia trees \[15\] with modifications for longest prefix matching"
//! (§2.1). This is that structure: internal nodes test one bit position
//! (skipping runs of common bits), and every node may carry a route whose
//! prefix ends there. Lookup walks at most 32 bit tests and remembers the
//! deepest matching route.

/// A route entry: `addr/len -> next_hop`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RouteEntry {
    pub prefix: u32,
    pub len: u8,
    pub next_hop: u32,
}

impl RouteEntry {
    pub fn new(prefix: u32, len: u8, next_hop: u32) -> RouteEntry {
        assert!(len <= 32);
        RouteEntry {
            prefix: mask(prefix, len),
            len,
            next_hop,
        }
    }

    /// True if `addr` falls inside this prefix. Host bits set below the
    /// mask (an entry built through the public fields rather than
    /// [`RouteEntry::new`]) are ignored, as every table builder does.
    #[inline]
    pub fn matches(&self, addr: u32) -> bool {
        mask(addr ^ self.prefix, self.len) == 0
    }
}

/// Longest-prefix match by linear scan over a plain route slice: the
/// executable *specification* of LPM that every engine in this crate
/// (and the fabric-level static verifier in raw-verify) is measured
/// against. Ties between entries of equal length and equal masked
/// prefix resolve to the last entry, matching the table builders'
/// semantics ([`PatriciaTable::insert`] replaces).
pub fn reference_lpm(routes: &[RouteEntry], addr: u32) -> Option<u32> {
    let mut best: Option<&RouteEntry> = None;
    for r in routes {
        if r.matches(addr) && best.is_none_or(|b| r.len >= b.len) {
            best = Some(r);
        }
    }
    best.map(|r| r.next_hop)
}

/// Zero out host bits beyond `len`.
#[inline]
pub fn mask(addr: u32, len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        addr & (u32::MAX << (32 - len as u32))
    }
}

#[inline]
fn bit(addr: u32, pos: u8) -> bool {
    debug_assert!(pos < 32);
    (addr >> (31 - pos)) & 1 == 1
}

#[derive(Clone, Debug)]
struct Node {
    /// The prefix this node represents (its first `plen` bits).
    prefix: u32,
    plen: u8,
    /// Route terminating exactly here, if any.
    route: Option<u32>,
    /// Children keyed by the bit at position `plen`.
    children: [Option<Box<Node>>; 2],
}

impl Node {
    fn new(prefix: u32, plen: u8) -> Node {
        Node {
            prefix: mask(prefix, plen),
            plen,
            route: None,
            children: [None, None],
        }
    }
}

/// Longest-prefix-match routing table as a Patricia trie.
#[derive(Clone, Debug)]
pub struct PatriciaTable {
    root: Node,
    len: usize,
}

impl Default for PatriciaTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Length of the common prefix of `a` and `b`, capped at `max`.
fn common_prefix_len(a: u32, b: u32, max: u8) -> u8 {
    (((a ^ b).leading_zeros() as u8).min(max)).min(32)
}

impl PatriciaTable {
    pub fn new() -> PatriciaTable {
        PatriciaTable {
            root: Node::new(0, 0),
            len: 0,
        }
    }

    /// A table holding `routes`, inserted in order (a later duplicate
    /// replaces an earlier one).
    pub fn build(routes: &[RouteEntry]) -> PatriciaTable {
        let mut t = PatriciaTable::new();
        for r in routes {
            t.insert(*r);
        }
        t
    }

    /// Number of routes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert or replace a route. Returns the previous next hop if the
    /// exact prefix was already present.
    pub fn insert(&mut self, entry: RouteEntry) -> Option<u32> {
        let RouteEntry {
            prefix,
            len,
            next_hop,
        } = entry;
        let mut node: &mut Node = &mut self.root;
        loop {
            debug_assert!(
                len >= node.plen || common_prefix_len(prefix, node.prefix, len) >= node.plen
            );
            if node.plen == len && node.prefix == mask(prefix, len) {
                let old = node.route.replace(next_hop);
                if old.is_none() {
                    self.len += 1;
                }
                return old;
            }
            let b = bit(prefix, node.plen) as usize;
            match &mut node.children[b] {
                slot @ None => {
                    let mut leaf = Node::new(prefix, len);
                    leaf.route = Some(next_hop);
                    *slot = Some(Box::new(leaf));
                    self.len += 1;
                    return None;
                }
                Some(child) => {
                    let cpl = common_prefix_len(prefix, child.prefix, len.min(child.plen));
                    if cpl >= child.plen {
                        // Descend: the child's prefix covers ours so far.
                        node = node.children[b].as_mut().unwrap();
                        continue;
                    }
                    // Split the edge at cpl: new internal node.
                    let old_child = node.children[b].take().unwrap();
                    let mut split = Node::new(prefix, cpl);
                    let ob = bit(old_child.prefix, cpl) as usize;
                    split.children[ob] = Some(old_child);
                    if cpl == len {
                        // Our prefix ends at the split point.
                        split.route = Some(next_hop);
                        self.len += 1;
                        node.children[b] = Some(Box::new(split));
                        return None;
                    }
                    let nb = bit(prefix, cpl) as usize;
                    debug_assert_ne!(nb, ob, "split bit must differ");
                    let mut leaf = Node::new(prefix, len);
                    leaf.route = Some(next_hop);
                    split.children[nb] = Some(Box::new(leaf));
                    node.children[b] = Some(Box::new(split));
                    self.len += 1;
                    return None;
                }
            }
        }
    }

    /// Longest-prefix-match lookup: the next hop of the most specific
    /// route covering `addr`, and the number of trie nodes visited
    /// (the Lookup Processor's memory-access count).
    pub fn lookup_traced(&self, addr: u32) -> (Option<u32>, u32) {
        let mut best = None;
        let mut node = &self.root;
        let mut visited = 0u32;
        loop {
            visited += 1;
            if mask(addr, node.plen) != node.prefix {
                break;
            }
            if let Some(h) = node.route {
                best = Some(h);
            }
            if node.plen >= 32 {
                break;
            }
            match &node.children[bit(addr, node.plen) as usize] {
                Some(c) => node = c,
                None => break,
            }
        }
        (best, visited)
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, addr: u32) -> Option<u32> {
        self.lookup_traced(addr).0
    }

    /// Remove a route by exact prefix; returns its next hop.
    /// (Structural simplification of emptied nodes is skipped — lookups
    /// remain correct and insertion reuses the nodes.)
    pub fn remove(&mut self, prefix: u32, len: u8) -> Option<u32> {
        let prefix = mask(prefix, len);
        let mut node: &mut Node = &mut self.root;
        loop {
            if node.plen == len && node.prefix == prefix {
                let old = node.route.take();
                if old.is_some() {
                    self.len -= 1;
                }
                return old;
            }
            if node.plen >= len {
                return None;
            }
            let b = bit(prefix, node.plen) as usize;
            match &mut node.children[b] {
                Some(c) if common_prefix_len(prefix, c.prefix, len.min(c.plen)) >= c.plen => {
                    node = node.children[b].as_mut().unwrap();
                }
                _ => return None,
            }
        }
    }

    /// Iterate all stored routes (order unspecified but deterministic).
    pub fn iter(&self) -> Vec<RouteEntry> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack = vec![&self.root];
        while let Some(n) = stack.pop() {
            if let Some(h) = n.route {
                out.push(RouteEntry {
                    prefix: n.prefix,
                    len: n.plen,
                    next_hop: h,
                });
            }
            for c in n.children.iter().flatten() {
                stack.push(c);
            }
        }
        out
    }

    /// Maximum node depth (bounds worst-case lookup cost).
    pub fn max_depth(&self) -> u32 {
        fn depth(n: &Node) -> u32 {
            1 + n
                .children
                .iter()
                .flatten()
                .map(|c| depth(c))
                .max()
                .unwrap_or(0)
        }
        depth(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(p: &str, len: u8, hop: u32) -> RouteEntry {
        let addr = p
            .split('.')
            .map(|o| o.parse::<u32>().unwrap())
            .fold(0u32, |a, o| (a << 8) | o);
        RouteEntry::new(addr, len, hop)
    }

    #[test]
    fn reference_lpm_agrees_with_the_patricia_table() {
        let routes = [
            e("10.0.0.0", 8, 1),
            e("10.1.0.0", 16, 2),
            e("10.1.2.0", 24, 3),
            e("0.0.0.0", 0, 9),
        ];
        let mut t = PatriciaTable::new();
        for r in &routes {
            t.insert(*r);
        }
        // A deterministic spray of probe addresses, including every
        // prefix boundary of the table above.
        let mut probes = vec![0x0a010203, 0x0a010303, 0x0a020303, 0x0b000001, 0, u32::MAX];
        let mut x = 0x12345678u32;
        for _ in 0..4096 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            probes.push(x);
        }
        for a in probes {
            assert_eq!(reference_lpm(&routes, a), t.lookup(a), "addr {a:#010x}");
        }
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = PatriciaTable::new();
        t.insert(e("10.0.0.0", 8, 1));
        t.insert(e("10.1.0.0", 16, 2));
        t.insert(e("10.1.2.0", 24, 3));
        assert_eq!(t.lookup(0x0a010203), Some(3)); // 10.1.2.3
        assert_eq!(t.lookup(0x0a010303), Some(2)); // 10.1.3.3
        assert_eq!(t.lookup(0x0a020303), Some(1)); // 10.2.3.3
        assert_eq!(t.lookup(0x0b000001), None); // 11.0.0.1
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn default_route() {
        let mut t = PatriciaTable::new();
        t.insert(RouteEntry::new(0, 0, 9));
        t.insert(e("192.168.0.0", 16, 4));
        assert_eq!(t.lookup(0x01020304), Some(9));
        assert_eq!(t.lookup(0xc0a80505), Some(4));
    }

    #[test]
    fn replace_returns_old_hop() {
        let mut t = PatriciaTable::new();
        assert_eq!(t.insert(e("10.0.0.0", 8, 1)), None);
        assert_eq!(t.insert(e("10.0.0.0", 8, 7)), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(0x0a000001), Some(7));
    }

    #[test]
    fn host_routes() {
        let mut t = PatriciaTable::new();
        t.insert(e("10.0.0.1", 32, 1));
        t.insert(e("10.0.0.2", 32, 2));
        assert_eq!(t.lookup(0x0a000001), Some(1));
        assert_eq!(t.lookup(0x0a000002), Some(2));
        assert_eq!(t.lookup(0x0a000003), None);
    }

    #[test]
    fn remove_routes() {
        let mut t = PatriciaTable::new();
        t.insert(e("10.0.0.0", 8, 1));
        t.insert(e("10.1.0.0", 16, 2));
        assert_eq!(t.remove(0x0a010000, 16), Some(2));
        assert_eq!(t.lookup(0x0a010203), Some(1), "falls back to /8");
        assert_eq!(t.remove(0x0a010000, 16), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn sibling_prefixes_split_correctly() {
        let mut t = PatriciaTable::new();
        // 10.0.0.0/8 and 11.0.0.0/8 share 7 leading bits.
        t.insert(e("10.0.0.0", 8, 1));
        t.insert(e("11.0.0.0", 8, 2));
        assert_eq!(t.lookup(0x0a123456), Some(1));
        assert_eq!(t.lookup(0x0b123456), Some(2));
    }

    #[test]
    fn iter_returns_everything() {
        let mut t = PatriciaTable::new();
        let routes = [
            e("10.0.0.0", 8, 1),
            e("10.1.0.0", 16, 2),
            e("172.16.0.0", 12, 3),
            e("0.0.0.0", 0, 4),
        ];
        for r in routes {
            t.insert(r);
        }
        let mut got = t.iter();
        got.sort_by_key(|r| (r.len, r.prefix));
        assert_eq!(got.len(), 4);
        assert!(got.iter().any(|r| r.len == 12 && r.next_hop == 3));
    }

    #[test]
    fn lookup_traced_counts_accesses() {
        let mut t = PatriciaTable::new();
        t.insert(e("10.0.0.0", 8, 1));
        t.insert(e("10.1.0.0", 16, 2));
        let (hop, visited) = t.lookup_traced(0x0a010203);
        assert_eq!(hop, Some(2));
        assert!((2..=33).contains(&visited), "visited {visited}");
        assert!(t.max_depth() <= 34);
    }
}
