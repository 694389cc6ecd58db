//! Identifier newtypes shared across the workspace.

use std::fmt;

macro_rules! id_u64 {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u64);

        impl $name {
            /// Construct from a raw value.
            #[inline]
            pub const fn new(v: u64) -> Self {
                $name(v)
            }
            /// The raw value.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, ":{}"), self.0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(self, f)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                $name(v)
            }
        }
    };
}

macro_rules! id_u32 {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// Construct from a raw value.
            #[inline]
            pub const fn new(v: u32) -> Self {
                $name(v)
            }
            /// The raw value.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, ":{}"), self.0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(self, f)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }
    };
}

id_u64! {
    /// Identifies a database page. Page ids are dense and allocated by the
    /// engine's allocator; the page-space partitioning that assigns pages to
    /// page servers is a pure function of the page id.
    PageId, "page"
}

id_u64! {
    /// Identifies a transaction. Allocated monotonically by the primary's
    /// transaction manager; also used as the MVCC "begin" marker before a
    /// transaction acquires its commit timestamp.
    TxnId, "txn"
}

id_u64! {
    /// Identifies a blob in the XStore log-structured store (data files,
    /// checkpoints, long-term log segments, backups).
    BlobId, "blob"
}

id_u32! {
    /// Identifies a partition of the database page space. Each Socrates
    /// page server owns exactly one partition (possibly with replicas).
    PartitionId, "part"
}

id_u32! {
    /// Identifies a table in the catalog.
    TableId, "table"
}

id_u32! {
    /// Identifies a replica within a replicated service (landing-zone
    /// replicas, page-server replicas, HADR secondaries).
    ReplicaId, "replica"
}

/// Identifies a node (a mini-service instance) in a deployment.
///
/// Socrates deployments are made of many loosely-coupled mini-services:
/// compute nodes, the XLOG process, page servers, and the XStore service.
/// `NodeId` names one instance for metrics, CPU accounting, and logging.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId {
    /// Which tier the node belongs to.
    pub kind: NodeKind,
    /// Index within the tier (e.g. secondary 0, page server 7).
    pub index: u32,
}

/// The tier a node belongs to.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum NodeKind {
    /// The primary compute node (read/write transactions).
    Primary,
    /// A secondary compute node (read-only transactions, failover target).
    Secondary,
    /// The XLOG service process.
    XLog,
    /// A page server.
    PageServer,
    /// The XStore storage service.
    XStore,
    /// A benchmark client driver.
    Client,
    /// The fault-injection registry (owns `fault_injected_total.*`).
    Fault,
    /// A quorum WAL acceptor (safekeeper-style log node).
    Acceptor,
}

impl NodeKind {
    /// Every tier, in declaration order: `ALL[k as usize] == k` (the
    /// span ring stores a kind as that position).
    pub const ALL: [NodeKind; 8] = [
        NodeKind::Primary,
        NodeKind::Secondary,
        NodeKind::XLog,
        NodeKind::PageServer,
        NodeKind::XStore,
        NodeKind::Client,
        NodeKind::Fault,
        NodeKind::Acceptor,
    ];

    /// Lowercase tier name used in metric names (`tier.node.metric`).
    pub const fn tier_name(self) -> &'static str {
        match self {
            NodeKind::Primary => "primary",
            NodeKind::Secondary => "secondary",
            NodeKind::XLog => "xlog",
            NodeKind::PageServer => "pageserver",
            NodeKind::XStore => "xstore",
            NodeKind::Client => "client",
            NodeKind::Fault => "fault",
            NodeKind::Acceptor => "acceptor",
        }
    }
}

impl NodeId {
    /// The (single) primary compute node.
    pub const PRIMARY: NodeId = NodeId { kind: NodeKind::Primary, index: 0 };
    /// The (single) XLOG service node.
    pub const XLOG: NodeId = NodeId { kind: NodeKind::XLog, index: 0 };
    /// The (single) XStore service node.
    pub const XSTORE: NodeId = NodeId { kind: NodeKind::XStore, index: 0 };
    /// The (single) fault-injection registry pseudo-node.
    pub const FAULT: NodeId = NodeId { kind: NodeKind::Fault, index: 0 };

    /// Secondary compute node `i`.
    pub const fn secondary(i: u32) -> NodeId {
        NodeId { kind: NodeKind::Secondary, index: i }
    }

    /// Page server `i`.
    pub const fn page_server(i: u32) -> NodeId {
        NodeId { kind: NodeKind::PageServer, index: i }
    }

    /// Benchmark client `i`.
    pub const fn client(i: u32) -> NodeId {
        NodeId { kind: NodeKind::Client, index: i }
    }

    /// Quorum WAL acceptor `i`.
    pub const fn acceptor(i: u32) -> NodeId {
        NodeId { kind: NodeKind::Acceptor, index: i }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.kind.tier_name(), self.index)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_roundtrip_and_display() {
        assert_eq!(PageId::new(7).raw(), 7);
        assert_eq!(PageId::from(7u64), PageId::new(7));
        assert_eq!(PageId::new(7).to_string(), "page:7");
        assert_eq!(PartitionId::new(3).to_string(), "part:3");
        assert_eq!(TxnId::new(9).to_string(), "txn:9");
        assert_eq!(BlobId::new(1).to_string(), "blob:1");
        assert_eq!(TableId::new(2).to_string(), "table:2");
        assert_eq!(ReplicaId::new(0).to_string(), "replica:0");
    }

    #[test]
    fn node_ids_are_distinct_and_hashable() {
        let mut set = HashSet::new();
        set.insert(NodeId::PRIMARY);
        set.insert(NodeId::secondary(0));
        set.insert(NodeId::secondary(1));
        set.insert(NodeId::page_server(0));
        set.insert(NodeId::XLOG);
        set.insert(NodeId::XSTORE);
        assert_eq!(set.len(), 6);
        assert_eq!(NodeId::secondary(1).to_string(), "secondary[1]");
        assert_eq!(NodeId::PRIMARY.to_string(), "primary[0]");
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(PageId::new(1) < PageId::new(2));
        assert!(TxnId::new(10) > TxnId::new(9));
    }
}
