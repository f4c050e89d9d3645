// The tile schedule of every catalog graph and of custard's lowering of the
// twelve Table 1 expressions, at tile 4, as `KernelTiling::from_graph` derived
// it from the graph before the derivation moved onto the plan (PR 23). The
// schedule is one crate-private record of `sam-exec` (`src/schedule.rs`),
// which names tensors by binding position and variables by number; that
// module compiles this file a second time, as a child module, prints its
// record the way a pin reads (each position as its binding's name, each
// variable number as its `char`) and checks it against `PINS` field for
// field. What is checked here, through the public API, is that each pin
// describes the plan of the fixture it is named after.
//
// (Plain comments, not `//!`: the file is also `include!`d.)

use custard::graphs;
use custard::{parse, ConcreteIndexNotation, Formats, Schedule};
use sam_core::graph::{NodeId, NodeKind, SamGraph};
use sam_exec::{Inputs, Plan};
use sam_tensor::{CooTensor, LevelFormat, TensorFormat};
use std::collections::BTreeMap;

const TILE: usize = 4;

/// One pinned schedule: `vars` are `(var, dim, grid, tiled)`, `tensors` are
/// `(name, level_vars)`.
struct Pin {
    name: &'static str,
    vars: &'static [(char, usize, usize, bool)],
    tensors: &'static [(&'static str, &'static [Option<char>])],
    output_vars: &'static [char],
    skip_tensors: &'static [&'static str],
}

/// A schedule as a pin prints it: variables by their `char` in traced order,
/// tensors and the skip set by binding name in binding order.
#[derive(Debug, PartialEq, Eq)]
struct Printed {
    vars: Vec<(char, usize, usize, bool)>,
    tensors: Vec<(String, Vec<Option<char>>)>,
    output_vars: Vec<char>,
    skip_tensors: Vec<String>,
}

impl Pin {
    fn printed(&self) -> Printed {
        Printed {
            vars: self.vars.to_vec(),
            tensors: self.tensors.iter().map(|&(name, levels)| (name.to_string(), levels.to_vec())).collect(),
            output_vars: self.output_vars.to_vec(),
            skip_tensors: self.skip_tensors.iter().map(|t| t.to_string()).collect(),
        }
    }
}

const PINS: [Pin; 33] = [
    Pin {
        name: "vec_elem_mul(dense)",
        vars: &[('i', 6, 2, true)],
        tensors: &[("b", &[Some('i')]), ("c", &[Some('i')])],
        output_vars: &['i'],
        skip_tensors: &[],
    },
    Pin {
        name: "vec_elem_mul(compressed)",
        vars: &[('i', 6, 2, true)],
        tensors: &[("b", &[Some('i')]), ("c", &[Some('i')])],
        output_vars: &['i'],
        skip_tensors: &["b", "c"],
    },
    Pin {
        name: "vec_elem_mul_with_skip(dense)",
        vars: &[('i', 6, 2, true)],
        tensors: &[("b", &[Some('i')]), ("c", &[Some('i')])],
        output_vars: &['i'],
        skip_tensors: &[],
    },
    Pin {
        name: "vec_elem_mul_with_skip(compressed)",
        vars: &[('i', 6, 2, true)],
        tensors: &[("b", &[Some('i')]), ("c", &[Some('i')])],
        output_vars: &['i'],
        skip_tensors: &["b", "c"],
    },
    Pin {
        name: "mat_elem_mul",
        vars: &[('i', 6, 2, true), ('j', 6, 2, true)],
        tensors: &[("B", &[Some('i'), Some('j')]), ("C", &[Some('i'), Some('j')])],
        output_vars: &['i', 'j'],
        skip_tensors: &["B", "C"],
    },
    Pin {
        name: "mat_elem_mul_locating",
        vars: &[('i', 6, 2, true), ('j', 6, 2, true)],
        tensors: &[("B", &[Some('i'), Some('j')]), ("T", &[Some('i'), Some('j')])],
        output_vars: &['i', 'j'],
        skip_tensors: &["B"],
    },
    Pin {
        name: "identity",
        vars: &[('i', 6, 2, true), ('j', 6, 2, true)],
        tensors: &[("B", &[Some('i'), Some('j')])],
        output_vars: &['i', 'j'],
        skip_tensors: &["B"],
    },
    Pin {
        name: "spmv",
        vars: &[('i', 6, 2, true), ('j', 6, 2, true)],
        tensors: &[("B", &[Some('i'), Some('j')]), ("c", &[Some('j')])],
        output_vars: &['i'],
        skip_tensors: &["B"],
    },
    Pin {
        name: "spmv_coiteration",
        vars: &[('i', 6, 2, true), ('j', 6, 2, true)],
        tensors: &[("B", &[Some('i'), Some('j')]), ("c", &[Some('j')])],
        output_vars: &['i'],
        skip_tensors: &["B"],
    },
    Pin {
        name: "spmv_with_skip",
        vars: &[('i', 6, 2, true), ('j', 6, 2, true)],
        tensors: &[("B", &[Some('i'), Some('j')]), ("c", &[Some('j')])],
        output_vars: &['i'],
        skip_tensors: &["B"],
    },
    Pin {
        name: "spmm(linear-combination)",
        vars: &[('i', 6, 2, true), ('k', 6, 2, true), ('j', 6, 2, true)],
        tensors: &[("B", &[Some('i'), Some('k')]), ("C", &[Some('k'), Some('j')])],
        output_vars: &['i', 'j'],
        skip_tensors: &["B", "C"],
    },
    Pin {
        name: "spmm(inner-product)",
        vars: &[('i', 6, 2, true), ('j', 6, 2, true), ('k', 6, 1, false)],
        tensors: &[("B", &[Some('i'), Some('k')]), ("C", &[Some('j'), Some('k')])],
        output_vars: &['i', 'j'],
        skip_tensors: &["B"],
    },
    Pin {
        name: "spmm(outer-product)",
        vars: &[('k', 6, 2, true), ('i', 6, 2, true), ('j', 6, 2, true)],
        tensors: &[("B", &[Some('k'), Some('i')]), ("C", &[Some('k'), Some('j')])],
        output_vars: &['i', 'j'],
        skip_tensors: &["B", "C"],
    },
    Pin {
        name: "spmm_with_skip",
        vars: &[('i', 6, 2, true), ('k', 6, 2, true), ('j', 6, 2, true)],
        tensors: &[("B", &[Some('i'), Some('k')]), ("C", &[Some('k'), Some('j')])],
        output_vars: &['i', 'j'],
        skip_tensors: &["B", "C"],
    },
    Pin {
        name: "mttkrp",
        vars: &[('i', 6, 2, true), ('k', 6, 2, true), ('l', 6, 2, true), ('j', 6, 2, true)],
        tensors: &[
            ("B", &[Some('i'), Some('k'), Some('l')]),
            ("C", &[Some('k'), Some('j')]),
            ("D", &[Some('l'), Some('j')]),
        ],
        output_vars: &['i', 'j'],
        skip_tensors: &["B", "C", "D"],
    },
    Pin {
        name: "residual",
        vars: &[('i', 6, 2, true), ('j', 6, 1, false)],
        tensors: &[("C", &[Some('i'), Some('j')]), ("b", &[Some('i')]), ("d", &[Some('j')])],
        output_vars: &['i'],
        skip_tensors: &[],
    },
    Pin {
        name: "mat_trans_mul",
        vars: &[('i', 6, 2, true), ('j', 6, 1, false)],
        tensors: &[("B", &[Some('i'), Some('j')]), ("c", &[Some('j')]), ("d", &[Some('i')])],
        output_vars: &['i'],
        skip_tensors: &[],
    },
    Pin {
        name: "plus3",
        vars: &[('i', 6, 2, true), ('j', 6, 2, true)],
        tensors: &[
            ("B", &[Some('i'), Some('j')]),
            ("C", &[Some('i'), Some('j')]),
            ("D", &[Some('i'), Some('j')]),
        ],
        output_vars: &['i', 'j'],
        skip_tensors: &[],
    },
    Pin {
        name: "sddmm_coiteration",
        vars: &[('i', 6, 2, true), ('j', 6, 2, true), ('k', 6, 1, false)],
        tensors: &[
            ("B", &[Some('i'), Some('j')]),
            ("C", &[Some('i'), Some('k')]),
            ("D", &[Some('j'), Some('k')]),
        ],
        output_vars: &['i', 'j'],
        skip_tensors: &["B"],
    },
    Pin {
        name: "sddmm_with_skip",
        vars: &[('i', 6, 2, true), ('j', 6, 2, true), ('k', 6, 1, false)],
        tensors: &[
            ("B", &[Some('i'), Some('j')]),
            ("C", &[Some('i'), Some('k')]),
            ("D", &[Some('j'), Some('k')]),
        ],
        output_vars: &['i', 'j'],
        skip_tensors: &["B"],
    },
    Pin {
        name: "sddmm_locating",
        vars: &[('i', 6, 2, true), ('j', 6, 2, true), ('k', 6, 1, false)],
        tensors: &[
            ("B", &[Some('i'), Some('j')]),
            ("C", &[Some('i'), Some('k')]),
            ("D", &[Some('j'), Some('k')]),
        ],
        output_vars: &['i', 'j'],
        skip_tensors: &["B"],
    },
    Pin {
        name: "custard SpMV",
        vars: &[('i', 6, 2, true), ('j', 6, 2, true)],
        tensors: &[("B", &[Some('i'), Some('j')]), ("c", &[Some('j')])],
        output_vars: &['i'],
        skip_tensors: &["B"],
    },
    Pin {
        name: "custard SpM*SpM",
        vars: &[('i', 6, 2, true), ('k', 6, 2, true), ('j', 6, 2, true)],
        tensors: &[("B", &[Some('i'), Some('k')]), ("C", &[Some('k'), Some('j')])],
        output_vars: &['i', 'j'],
        skip_tensors: &["B"],
    },
    Pin {
        name: "custard SDDMM",
        vars: &[('i', 6, 2, true), ('j', 6, 2, true), ('k', 6, 1, false)],
        tensors: &[
            ("B", &[Some('i'), Some('j')]),
            ("C", &[Some('i'), Some('k')]),
            ("D", &[Some('j'), Some('k')]),
        ],
        output_vars: &['i', 'j'],
        skip_tensors: &["B"],
    },
    Pin {
        name: "custard InnerProd",
        vars: &[('i', 6, 1, false), ('j', 6, 1, false), ('k', 6, 1, false)],
        tensors: &[("B", &[Some('i'), Some('j'), Some('k')]), ("C", &[Some('i'), Some('j'), Some('k')])],
        output_vars: &[],
        skip_tensors: &[],
    },
    Pin {
        name: "custard TTV",
        vars: &[('i', 6, 2, true), ('j', 6, 2, true), ('k', 6, 1, false)],
        tensors: &[("B", &[Some('i'), Some('j'), Some('k')]), ("c", &[Some('k')])],
        output_vars: &['i', 'j'],
        skip_tensors: &["B"],
    },
    Pin {
        name: "custard TTM",
        vars: &[('i', 6, 2, true), ('j', 6, 2, true), ('k', 6, 2, true), ('l', 6, 1, false)],
        tensors: &[("B", &[Some('i'), Some('j'), Some('l')]), ("C", &[Some('k'), Some('l')])],
        output_vars: &['i', 'j', 'k'],
        skip_tensors: &["B"],
    },
    Pin {
        name: "custard MTTKRP",
        vars: &[('i', 6, 2, true), ('j', 6, 2, true), ('k', 6, 1, false), ('l', 6, 1, false)],
        tensors: &[
            ("B", &[Some('i'), Some('k'), Some('l')]),
            ("C", &[Some('j'), Some('k')]),
            ("D", &[Some('j'), Some('l')]),
        ],
        output_vars: &['i', 'j'],
        skip_tensors: &["B"],
    },
    Pin {
        name: "custard Residual",
        vars: &[('i', 6, 2, true), ('j', 6, 1, false)],
        tensors: &[("C", &[Some('i'), Some('j')]), ("b", &[Some('i')]), ("d", &[Some('j')])],
        output_vars: &['i'],
        skip_tensors: &[],
    },
    Pin {
        name: "custard MatTransMul",
        vars: &[('i', 6, 2, true), ('j', 6, 1, false)],
        tensors: &[("B", &[Some('i'), Some('j')]), ("c", &[Some('j')]), ("d", &[Some('i')])],
        output_vars: &['i'],
        skip_tensors: &[],
    },
    Pin {
        name: "custard MMAdd",
        vars: &[('i', 6, 2, true), ('j', 6, 2, true)],
        tensors: &[("B", &[Some('i'), Some('j')]), ("C", &[Some('i'), Some('j')])],
        output_vars: &['i', 'j'],
        skip_tensors: &[],
    },
    Pin {
        name: "custard Plus3",
        vars: &[('i', 6, 2, true), ('j', 6, 2, true)],
        tensors: &[
            ("B", &[Some('i'), Some('j')]),
            ("C", &[Some('i'), Some('j')]),
            ("D", &[Some('i'), Some('j')]),
        ],
        output_vars: &['i', 'j'],
        skip_tensors: &[],
    },
    Pin {
        name: "custard Plus2",
        vars: &[('i', 6, 2, true), ('j', 6, 2, true), ('k', 6, 2, true)],
        tensors: &[("B", &[Some('i'), Some('j'), Some('k')]), ("C", &[Some('i'), Some('j'), Some('k')])],
        output_vars: &['i', 'j', 'k'],
        skip_tensors: &[],
    },
];

/// The twelve Table 1 expressions: name, text, loop order, operands bound
/// dense.
const TABLE1: [(&str, &str, Option<&str>, &[&str]); 12] = [
    ("SpMV", "x(i) = B(i,j) * c(j)", None, &[]),
    ("SpM*SpM", "X(i,j) = B(i,k) * C(k,j)", Some("ikj"), &[]),
    ("SDDMM", "X(i,j) = B(i,j) * C(i,k) * D(j,k)", None, &["C", "D"]),
    ("InnerProd", "chi() = B(i,j,k) * C(i,j,k)", None, &[]),
    ("TTV", "X(i,j) = B(i,j,k) * c(k)", None, &[]),
    ("TTM", "X(i,j,k) = B(i,j,l) * C(k,l)", None, &[]),
    ("MTTKRP", "X(i,j) = B(i,k,l) * C(j,k) * D(j,l)", None, &[]),
    ("Residual", "x(i) = b(i) - C(i,j) * d(j)", None, &[]),
    ("MatTransMul", "x(i) = alpha * B(j,i) * c(j) + beta * d(i)", None, &[]),
    ("MMAdd", "X(i,j) = B(i,j) + C(i,j)", None, &[]),
    ("Plus3", "X(i,j) = B(i,j) + C(i,j) + D(i,j)", None, &[]),
    ("Plus2", "X(i,j,k) = B(i,j,k) + C(i,j,k)", None, &[]),
];

/// Binds every tensor `graph` names the way
/// `verify_integration.rs::bind_operands` does: rank and level formats as the
/// graph's own scanners and locators declare them, every dimension 6, four
/// diagonal entries, every named constant a scalar.
fn bind_operands(graph: &SamGraph) -> Inputs {
    let analysis = sam_verify::Analysis::run(graph, None);
    let mut formats: BTreeMap<&str, BTreeMap<usize, LevelFormat>> = BTreeMap::new();
    let mut inputs = Inputs::new();
    for (i, kind) in graph.nodes().iter().enumerate() {
        let (tensor, slot, format) = match kind {
            NodeKind::LevelScanner { tensor, compressed: true, .. } => (tensor, 0, LevelFormat::Compressed),
            NodeKind::LevelScanner { tensor, .. } => (tensor, 0, LevelFormat::Dense),
            NodeKind::Locator { tensor, .. } => (tensor, 1, LevelFormat::Dense),
            NodeKind::ConstVal { tensor, .. } if !tensor.is_empty() => {
                inputs = inputs.scalar(tensor, 2.0);
                continue;
            }
            _ => continue,
        };
        let src = analysis.inputs_of(NodeId(i))[slot].expect("fixture graphs are fully wired");
        let Some(sam_verify::StreamType::Ref { depth, .. }) = analysis.stream_type(src) else {
            panic!("fixture reference streams are traced");
        };
        formats.entry(tensor).or_default().insert(*depth, format);
    }
    for (tensor, levels) in formats {
        let rank = levels.len();
        let entries = (0..4u32).map(|k| (vec![k; rank], f64::from(k + 1))).collect();
        let coo = CooTensor::from_entries(vec![6; rank], entries).expect("points lie inside the shape");
        inputs = inputs.coo(tensor, &coo, TensorFormat::new(levels.into_values().collect()));
    }
    inputs
}

/// Every pinned graph with its operands, in `PINS` order.
fn fixtures() -> Vec<(String, SamGraph, Inputs)> {
    let mut all: Vec<(String, SamGraph)> =
        graphs::catalog().into_iter().map(|(name, graph)| (name.to_string(), graph)).collect();
    for (name, text, order, dense) in TABLE1 {
        let schedule = order.map_or_else(Schedule::new, |o| Schedule::new().reorder(o));
        let formats = dense.iter().fold(Formats::new(), |f, t| f.set(t, TensorFormat::dense(2)));
        let cin = ConcreteIndexNotation::new(parse(text).expect("Table 1 parses"), &schedule, formats);
        all.push((format!("custard {name}"), custard::lower_exec(&cin).expect("Table 1 lowers").graph));
    }
    all.into_iter()
        .map(|(name, graph)| {
            let inputs = bind_operands(&graph);
            (name, graph, inputs)
        })
        .collect()
}

#[test]
fn every_pin_describes_its_fixtures_plan() {
    let fixtures = fixtures();
    assert_eq!(fixtures.len(), PINS.len());
    for (pin, (name, graph, inputs)) in PINS.iter().zip(&fixtures) {
        assert_eq!(pin.name, name);
        let plan = Plan::build(graph, inputs).unwrap_or_else(|e| panic!("{name}: {e}"));
        let t = pin.printed();
        let dim = |var: char| t.vars.iter().find(|v| v.0 == var).map(|v| v.1);
        // The output's levels are the writers' variables at their pinned sizes.
        let shape: Vec<Option<usize>> = t.output_vars.iter().map(|&v| dim(v)).collect();
        assert_eq!(shape, plan.output_shape().iter().map(|&d| Some(d)).collect::<Vec<_>>(), "{name}");
        for &(var, dim, grid, tiled) in &t.vars {
            assert_eq!(grid, if tiled { dim.div_ceil(TILE) } else { 1 }, "{name}: grid of {var}");
            assert!(tiled || !t.output_vars.contains(&var), "{name}: output variable {var} untiled");
        }
        // Every windowed tensor is bound, level for level; only those can gate a tuple.
        for (tensor, level_vars) in &t.tensors {
            assert_eq!(inputs.get(tensor).map(|b| b.levels().len()), Some(level_vars.len()), "{name}");
        }
        assert!(t.skip_tensors.iter().all(|s| t.tensors.iter().any(|(tensor, _)| tensor == s)), "{name}");
    }
}
