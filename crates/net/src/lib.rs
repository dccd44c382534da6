#![warn(missing_docs)]

//! # scotch-net
//!
//! Network substrate for the Scotch reproduction: addressing, the 5-tuple
//! flow abstraction, packets carrying an MPLS-style label stack, links with
//! finite bandwidth / propagation delay / drop-tail queues, the topology
//! graph (with waypoint routing for middlebox chains), and tunnels.
//!
//! The paper's Scotch overlay is built from tunnels (GRE / MPLS /
//! MAC-in-MAC, §4.1) riding the underlying SDN data plane. We model a
//! tunnel as a pre-installed label-switched path: intermediate switches
//! forward by the *outer* label in their data plane without any OFA
//! involvement, exactly the property Scotch exploits ("when the new flows
//! are tunneled to vSwitches there is no additional load on the OFA").

pub mod dense;
pub mod flow;
pub mod link;
pub mod packet;
pub mod topology;
pub mod tunnel;

pub use dense::NodeMap;
pub use flow::{FlowId, FlowKey, IpAddr, Protocol};
pub use link::{LinkId, LinkSpec, TxResult};
pub use packet::{Label, LabelStack, Packet, PacketKind};
pub use topology::{NodeId, NodeKind, PortId, Topology};
pub use tunnel::{Tunnel, TunnelId, TunnelTable};
