//! The cycle-approximate backend: instantiates the planned graph as
//! `sam-primitives` blocks inside the `sam-sim` [`Simulator`], one per node
//! record of the [`Plan`]: a block's storage level, values, constant, ALU
//! operation and writer dimension are the ones the plan resolved, its
//! tensor the binding at the position the record names. A block whose
//! token rule faults fails the run as the fast backend fails it: with the
//! node's [`ExecError::Misaligned`] or [`ExecError::RefOutOfBounds`].

use crate::bind::Inputs;
use crate::error::ExecError;
use crate::plan::{Merger, Op, Plan, Transfer, DEFAULT_MAX_CYCLES};
use crate::{assemble_output, Execution, Executor};
use sam_core::graph::NodeId;
use sam_primitives::writer::{level_sink, val_sink, LevelWriterSink, ValWriterSink};
use sam_primitives::{
    alu, const_val, level_writer, locator, root_stream, val_array, val_writer, CoordDropper, Fork,
    Intersecter, LevelScanner, Reducer, Repeater, Unioner,
};
use sam_sim::{ChannelId, SimulationError, Simulator};
use sam_tensor::level::Level;
use sam_tensor::Tensor;
use sam_trace::{TokenCounts, TraceSink};
use std::sync::Arc;
use std::time::Instant;

/// Level `.1` of a bound tensor, which a scanner or a locator reads in
/// place: a run copies no operand storage.
#[derive(Debug)]
struct BoundLevel(Arc<Tensor>, usize);

impl AsRef<Level> for BoundLevel {
    fn as_ref(&self) -> &Level {
        self.0.level(self.1)
    }
}

/// A bound tensor's values, which an array reads in place.
#[derive(Debug)]
struct BoundVals(Arc<Tensor>);

impl AsRef<[f64]> for BoundVals {
    fn as_ref(&self) -> &[f64] {
        self.0.vals()
    }
}

/// Runs plans on the cycle-approximate simulator, reporting cycle counts;
/// a run that has not finished after [`DEFAULT_MAX_CYCLES`] is an error.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleBackend;

impl Executor for CycleBackend {
    fn name(&self) -> &'static str {
        "cycle"
    }

    fn run_traced(
        &self,
        plan: &Plan,
        inputs: &Inputs,
        trace: &dyn TraceSink,
    ) -> Result<Execution, ExecError> {
        plan.check_inputs(inputs)?;
        let start = Instant::now();
        let tracing = trace.enabled();
        let n = plan.graph().len();
        let mut sim = Simulator::new();
        // By the plan's port numbering: each output port's base channel, and
        // the channel each input slot reads (the base channel unless a fork
        // was planned for the port; every slot a block reads is fed).
        let mut out_ch = vec![ChannelId(usize::MAX); plan.readers().len()];
        let mut input_ch = vec![ChannelId(usize::MAX); plan.analysis().slot_count()];
        // Per output level, the sink of the writer that writes it.
        let mut level_sinks: Vec<Option<LevelWriterSink>> = vec![None; plan.level_writers().len()];
        let mut vals_sink: Option<ValWriterSink> = None;
        // (channel, producing node, is-skip-lane) for every simulator channel
        // incl. fork lanes, so per-node token sums equal the report total.
        let mut chan_owner: Vec<(ChannelId, usize, bool)> = Vec::new();

        if tracing {
            for &id in plan.order() {
                trace.define_node(id.0, &plan.node_label(id));
            }
        }

        // A node's block is named after it.
        let block_name = |id: NodeId| format!("n{}:{}", id.0, plan.node_label(id));

        // Pass 1: allocate every node's output channels and forks up front.
        // Skip feedback lanes make this necessary: the scanner's skip input
        // is fed by the *downstream* intersecter, so its channel must exist
        // before the scanner block is constructed.
        let slot_of = |&(to, slot): &(NodeId, usize)| plan.analysis().input_slots(to).start + slot;
        for &id in plan.order() {
            let label = block_name(id);
            for ((port, consumers), at) in
                plan.consumers_of(id).iter().enumerate().zip(plan.analysis().output_ports(id))
            {
                // A port read, but by no data reader, feeds a scanner's skip
                // input; its tokens land in the `skip` bucket.
                let is_skip = !consumers.is_empty() && plan.readers()[at] == 0;
                let mut track = |sim: &mut Simulator, ch: ChannelId| {
                    if tracing {
                        sim.record(ch);
                        chan_owner.push((ch, id.0, is_skip));
                    }
                };
                let base = sim.add_channel(format!("{label}.out{port}"));
                track(&mut sim, base);
                out_ch[at] = base;
                if let [consumer] = consumers {
                    input_ch[slot_of(consumer)] = base;
                } else if consumers.len() > 1 {
                    let mut lanes = Vec::with_capacity(consumers.len());
                    for (lane, consumer) in consumers.iter().enumerate() {
                        let ch = sim.add_channel(format!("{label}.out{port}.fork{lane}"));
                        track(&mut sim, ch);
                        input_ch[slot_of(consumer)] = ch;
                        lanes.push(ch);
                    }
                    sim.add_block(Box::new(Fork::new(format!("{label}.fork{port}"), base, lanes)));
                }
            }
        }

        // Pass 2: instantiate one block per node over the allocated channels.
        // A node's block, by its index in the simulator; a root preloads its
        // stream and has none.
        let mut node_block: Vec<Option<usize>> = vec![None; n];
        for &id in plan.order() {
            let label = block_name(id);
            let slot = |s: usize| input_ch[plan.analysis().input_slots(id).start + s];
            let out = &out_ch[plan.analysis().output_ports(id)];
            let next_block = sim.num_blocks();
            match plan.node(id).op {
                Op::Merge(Merger { union: false, operands, .. }) => {
                    // Lower planned skip lanes onto the block's skip outputs
                    // (ports 3 and 4), which feed the operands' scanners.
                    let lane = |o: usize| operands[o].filter(|f| f.scan.skip_lane).map(|_| out[3 + o]);
                    sim.add_block(Box::new(
                        Intersecter::new(
                            label,
                            [slot(0), slot(1)],
                            [slot(2), slot(3)],
                            out[0],
                            [out[1], out[2]],
                        )
                        .with_skip_lanes([lane(0), lane(1)]),
                    ));
                }
                Op::Merge(Merger { union: true, .. }) => {
                    sim.add_block(Box::new(Unioner::new(
                        label,
                        [slot(0), slot(1)],
                        [slot(2), slot(3)],
                        out[0],
                        [out[1], out[2]],
                    )));
                }
                Op::Transfer(Transfer::Root) => {
                    sim.preload(out[0], root_stream());
                }
                Op::Transfer(Transfer::Scan { tensor, level, fused, .. }) => {
                    let level = BoundLevel(inputs.at(tensor).clone(), level);
                    let mut block = LevelScanner::new(label, level, slot(0), out[0], out[1]);
                    // A planned skip lane targets the scanner's skip input
                    // (port 1), fed by the downstream intersecter.
                    if fused.is_some_and(|f| f.skip_lane) {
                        block = block.with_skip(slot(1));
                    }
                    sim.add_block(Box::new(block));
                }
                Op::Transfer(Transfer::Repeat) => {
                    sim.add_block(Box::new(Repeater::new(label, slot(0), slot(1), out[0])));
                }
                Op::Transfer(Transfer::Locate { tensor, level, .. }) => {
                    let level = BoundLevel(inputs.at(tensor).clone(), level);
                    sim.add_block(Box::new(locator(
                        label,
                        level,
                        [slot(0), slot(1)],
                        [out[0], out[1], out[2]],
                    )));
                }
                Op::Transfer(Transfer::Array { tensor }) => {
                    let vals = BoundVals(inputs.at(tensor).clone());
                    sim.add_block(Box::new(val_array(label, vals, slot(0), out[0])));
                }
                Op::Transfer(Transfer::Const { value }) => {
                    sim.add_block(Box::new(const_val(label, value, slot(0), out[0])));
                }
                Op::Transfer(Transfer::Alu { op }) => {
                    sim.add_block(Box::new(alu(label, op, [slot(0), slot(1)], out[0])));
                }
                Op::Transfer(Transfer::Reduce { order }) => {
                    sim.add_block(match order {
                        0 => Box::new(Reducer::<0>::new(label, [], slot(0), [], out[0])),
                        1 => Box::new(Reducer::<1>::new(label, [slot(0)], slot(1), [out[0]], out[1])),
                        _ => Box::new(Reducer::<2>::new(
                            label,
                            [slot(0), slot(1)],
                            slot(2),
                            [out[0], out[1]],
                            out[2],
                        )),
                    });
                }
                Op::Transfer(Transfer::Drop) => {
                    sim.add_block(Box::new(CoordDropper::new(label, slot(0), slot(1), out[0], out[1])));
                }
                Op::Transfer(Transfer::WriteVals) => {
                    let sink = val_sink();
                    sim.add_block(Box::new(val_writer(label, slot(0), sink.clone())));
                    vals_sink = Some(sink);
                }
                Op::Transfer(Transfer::WriteLevel { dim, output, .. }) => {
                    let sink = level_sink();
                    sim.add_block(Box::new(level_writer(label, dim, slot(0), sink.clone())));
                    // A level writer of another tensor than the values
                    // writer's writes no level of the output.
                    if let Some(level) = output {
                        level_sinks[level] = Some(sink);
                    }
                }
            }
            node_block[id.0] = (sim.num_blocks() > next_block).then_some(next_block);
        }

        let report = sim.run(DEFAULT_MAX_CYCLES).map_err(|e| match e {
            SimulationError::Fault { ref block, fault, .. } => {
                match plan.order().iter().find(|&&id| block_name(id) == *block) {
                    Some(&id) => ExecError::at(fault, plan.node_label(id)),
                    None => ExecError::Sim(e),
                }
            }
            e => ExecError::Sim(e),
        })?;

        if tracing {
            // Classify every recorded channel's full history back to the node
            // that produced it. All simulator channels (fork lanes included)
            // are recorded, so the per-node sums equal `report.total_tokens`.
            let mut counts: Vec<TokenCounts> = vec![TokenCounts::default(); n];
            for &(ch, node, is_skip) in &chan_owner {
                for token in sim.history(ch) {
                    if is_skip {
                        counts[node].record_skip(token);
                    } else {
                        counts[node].record(token);
                    }
                }
            }
            for &id in plan.order() {
                trace.record_tokens(id.0, counts[id.0]);
                // The simulator ticks a block only while it is not stalled on
                // a channel, so its ticks against the run's cycles are its
                // time busy against its time waited. Ticks are cycles, not
                // nanoseconds: they stay out of `record_node_wall`. One span
                // per block, start of run to the cycle it reported done
                // (1 cycle = 1 ns): the latest end is the long pole.
                let Some(block) = node_block[id.0] else { continue };
                trace.record_invocations(id.0, sim.block_ticks(block));
                let done = sim.block_done_cycle(block).unwrap_or(report.cycles);
                trace.record_span("cycle", &plan.node_label(id), 0, done);
            }
        }

        let levels: Vec<_> = plan
            .level_writers()
            .iter()
            .zip(&level_sinks)
            .map(|(w, sink)| {
                let level = sink.as_ref().and_then(|sink| sink.lock().expect("level sink").clone());
                level.ok_or(ExecError::IncompleteOutput { label: plan.node_label(*w) })
            })
            .collect::<Result<_, _>>()?;
        let vals = vals_sink.and_then(|sink| sink.lock().expect("vals sink").clone());
        let vals = vals.ok_or(ExecError::IncompleteOutput { label: plan.node_label(plan.vals_writer()) })?;
        let output = assemble_output(plan, levels, &vals)?;

        Ok(Execution {
            backend: self.name(),
            output,
            vals,
            cycles: Some(report.cycles),
            blocks: report.blocks,
            channels: report.channels,
            tokens: report.total_tokens,
            memory: None,
            elapsed: start.elapsed(),
            profile: trace.snapshot(),
        })
    }
}
