//! Recorders that wrap a node or a fault channel from outside, so a layer
//! can later be replayed on its own over exactly the calls a real run made.

use majorcan_can::{Frame, WirePos};
use majorcan_sim::{BitNode, ChannelModel, Level, NodeId};
use majorcan_workload::FrameSink;
use std::hint::black_box;

/// One call a node received: a host request (a frame queued, a payload
/// broadcast) or one bit's drive/observe round.
#[derive(Debug, Clone)]
pub enum Op<H> {
    Host(H),
    Bit {
        now: u64,
        driven: Level,
        seen: Level,
    },
}

/// A node wrapper logging every call the engine and the host make on it.
#[derive(Debug)]
pub struct RecNode<N, H> {
    pub inner: N,
    pub ops: Vec<Op<H>>,
    pub events: usize,
    driven: Level,
}

impl<N, H> RecNode<N, H> {
    pub fn new(inner: N) -> RecNode<N, H> {
        RecNode {
            inner,
            ops: Vec::new(),
            events: 0,
            driven: Level::Recessive,
        }
    }
}

impl<N: BitNode, H> BitNode for RecNode<N, H> {
    type Tag = N::Tag;
    type Event = N::Event;

    fn drive(&mut self, now: u64) -> Level {
        self.driven = self.inner.drive(now);
        self.driven
    }

    fn tag(&self) -> N::Tag {
        self.inner.tag()
    }

    fn observe(&mut self, now: u64, seen: Level, events: &mut Vec<N::Event>) {
        self.ops.push(Op::Bit {
            now,
            driven: self.driven,
            seen,
        });
        let before = events.len();
        self.inner.observe(now, seen, events);
        self.events += events.len() - before;
    }

    fn quiescent_until(&self, now: u64) -> u64 {
        self.inner.quiescent_until(now)
    }
}

impl<N: FrameSink> FrameSink for RecNode<N, Frame> {
    fn enqueue_frame(&mut self, frame: Frame) {
        self.ops.push(Op::Host(frame.clone()));
        self.inner.enqueue_frame(frame);
    }
}

/// Replays `ops` into a fresh `node`. Returns whether every driven level
/// matched the recording, and the number of events the node emitted.
pub fn replay_node<N: BitNode, H: Clone>(
    node: &mut N,
    ops: &[Op<H>],
    host: impl Fn(&mut N, H),
) -> (bool, usize) {
    let mut scratch = Vec::new();
    let mut same = true;
    let mut events = 0;
    for op in ops {
        match op {
            Op::Host(h) => host(node, h.clone()),
            Op::Bit { now, driven, seen } => {
                same &= node.drive(*now) == *driven;
                black_box(node.tag());
                node.observe(*now, *seen, &mut scratch);
                events += scratch.len();
                scratch.clear();
            }
        }
    }
    (same, events)
}

/// One `disturb` call and its answer.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub bit: u64,
    pub node: usize,
    pub tag: WirePos,
    pub wire: Level,
    pub hit: bool,
}

/// A channel wrapper logging every `disturb` call.
#[derive(Debug)]
pub struct RecChannel<C> {
    pub inner: C,
    pub calls: Vec<Call>,
}

impl<C> RecChannel<C> {
    pub fn new(inner: C) -> RecChannel<C> {
        RecChannel {
            inner,
            calls: Vec::new(),
        }
    }
}

impl<C: ChannelModel<WirePos>> ChannelModel<WirePos> for RecChannel<C> {
    fn disturb(&mut self, bit: u64, node: NodeId, tag: &WirePos, wire: Level) -> bool {
        let hit = self.inner.disturb(bit, node, tag, wire);
        self.calls.push(Call {
            bit,
            node: node.index(),
            tag: *tag,
            wire,
            hit,
        });
        hit
    }

    fn quiet_until(&self, now: u64) -> u64 {
        self.inner.quiet_until(now)
    }
}

/// Replays `calls` into a fresh `channel`; `true` when every answer
/// matched the recording.
pub fn replay_channel<C: ChannelModel<WirePos>>(channel: &mut C, calls: &[Call]) -> bool {
    let mut same = true;
    for c in calls {
        same &= channel.disturb(c.bit, NodeId(c.node), &c.tag, c.wire) == c.hit;
    }
    same
}
