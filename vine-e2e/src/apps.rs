//! The applications the live workloads drive, and their result oracle:
//! the library each installs, the stream of units it submits, and the
//! expected result of every unit, computed by replaying the same
//! arguments on a `vine-lang` interpreter.

use crate::gen::{
    ExamolGraph, LnniInputs, EXAMOL_SEED_MOLECULES, EXAMOL_SIM_STEPS, IMAGES_PER_CALL, LNNI_DIM,
    LNNI_LAYERS,
};
use vine_apps::examol::EXAMOL_SOURCE;
use vine_apps::lnni::LNNI_SOURCE;
use vine_apps::modules::full_registry;
use vine_core::context::{CodeArtifact, ContextSpec, LibrarySpec, SetupSpec};
use vine_core::ids::{InvocationId, TaskId};
use vine_core::resources::Resources;
use vine_core::task::{ExecMode, FunctionCall, TaskSpec, UnitId, WorkUnit};
use vine_lang::{pickle, Engine, Interp, Value};
use vine_runtime::Runtime;

/// The LNNI source a stateless task ships: the library plus a wrapper
/// that rebuilds the model before every inference (the paper's L1 level,
/// no reuse).
pub fn stateless_source() -> String {
    format!(
        "{LNNI_SOURCE}\ndef stateless_infer(layers, dim, first_image, count) {{\n    \
         context_setup(layers, dim)\n    return infer(first_image, count)\n}}\n"
    )
}

/// A library to install: spec, source and context-setup arguments.
pub struct LibraryDef {
    pub spec: LibrarySpec,
    pub source: &'static str,
    pub setup_args: Vec<Value>,
}

impl LibraryDef {
    pub fn install(&self, rt: &mut Runtime) -> vine_core::Result<()> {
        rt.install_library(self.spec.clone(), self.source, vec![], &self.setup_args)
    }
}

fn library_spec(name: &str, functions: &[&str]) -> LibrarySpec {
    let mut spec = LibrarySpec::new(name);
    spec.functions = functions.iter().map(|f| f.to_string()).collect();
    spec.resources = Some(Resources::new(2, 2048, 2048));
    spec.slots = Some(2);
    spec.exec_mode = ExecMode::Direct;
    spec.context = ContextSpec {
        setup: Some(SetupSpec {
            function: "context_setup".into(),
            args_blob: vec![],
        }),
        ..Default::default()
    };
    spec
}

pub fn lnni_library() -> LibraryDef {
    LibraryDef {
        spec: library_spec("lnni", &["infer"]),
        source: LNNI_SOURCE,
        setup_args: vec![Value::Int(LNNI_LAYERS), Value::Int(LNNI_DIM)],
    }
}

pub fn examol_library() -> LibraryDef {
    LibraryDef {
        spec: library_spec("examol", &["simulate", "train", "infer"]),
        source: EXAMOL_SOURCE,
        setup_args: vec![Value::Int(EXAMOL_SEED_MOLECULES)],
    }
}

/// A warm interpreter holding a library's retained context, on the same
/// engine library daemons use.
pub fn warm_interp(lib: &LibraryDef) -> Result<Interp, String> {
    let mut interp = Interp::with_registry(full_registry());
    interp.engine = Engine::Vm;
    interp.exec_source(lib.source).map_err(|e| e.to_string())?;
    interp
        .call_global("context_setup", &lib.setup_args)
        .map_err(|e| e.to_string())?;
    Ok(interp)
}

/// One call of a library function with concrete arguments.
#[derive(Clone, Debug)]
pub struct Call {
    pub function: &'static str,
    pub args: Vec<Value>,
}

/// How a stream's units reach the workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Invocations of an installed library (context retained).
    Library,
    /// Stateless tasks shipping source and rebuilding context per call.
    Task,
}

/// The units a workload submits, in order, with the expected result of
/// each. Every unit's key indexes [`Stream::expected`].
pub struct Stream {
    pub shape: Shape,
    /// The library whose functions the units call; task streams ship its
    /// source instead of installing it.
    pub library: LibraryDef,
    /// Distinct calls; units draw from these by key.
    pub calls: Vec<Call>,
    /// Serialized expected result of each call.
    pub expected: Vec<Vec<u8>>,
    order: Order,
    stateless_source: String,
}

enum Order {
    /// Seeded draws from the LNNI argument pool.
    Lnni(LnniInputs),
    /// The ExaMol graph's nodes in topological order, cycled.
    Cycle(usize),
}

impl Stream {
    /// LNNI invocations drawn from a seeded pool of image ids.
    pub fn lnni(seed: u64, shape: Shape) -> Result<Stream, String> {
        let inputs = LnniInputs::new(seed);
        let lib = lnni_library();
        let mut interp = warm_interp(&lib)?;
        let calls: Vec<Call> = inputs
            .pool
            .iter()
            .map(|first| Call {
                function: "infer",
                args: vec![Value::Int(*first), Value::Int(IMAGES_PER_CALL)],
            })
            .collect();
        let expected = replay(&mut interp, &calls)?;
        Ok(Stream {
            shape,
            library: lib,
            calls,
            expected,
            order: Order::Lnni(inputs),
            stateless_source: stateless_source(),
        })
    }

    /// ExaMol steering rounds flattened to concrete calls: the model and
    /// picks each node would receive from its parents are taken from the
    /// replay, so units are independent and can be kept in flight at any
    /// depth.
    pub fn examol(graph: &ExamolGraph) -> Result<Stream, String> {
        let lib = examol_library();
        let mut interp = warm_interp(&lib)?;
        let model = interp
            .call_global("train", &[])
            .map_err(|e| e.to_string())?;
        let mut calls = Vec::new();
        for round in &graph.rounds {
            calls.push(Call {
                function: "train",
                args: vec![],
            });
            let mut picks = Vec::new();
            for candidates in round {
                let args = vec![model.clone(), candidate_list(candidates)];
                picks.push(
                    interp
                        .call_global("infer", &args)
                        .map_err(|e| e.to_string())?,
                );
                calls.push(Call {
                    function: "infer",
                    args,
                });
            }
            for pick in picks {
                calls.push(Call {
                    function: "simulate",
                    args: vec![pick, Value::Int(EXAMOL_SIM_STEPS)],
                });
            }
        }
        let expected = replay(&mut interp, &calls)?;
        Ok(Stream {
            shape: Shape::Library,
            library: lib,
            calls,
            expected,
            order: Order::Cycle(0),
            stateless_source: String::new(),
        })
    }

    /// The next unit, numbered `id`, and the key of its expected result.
    pub fn next_unit(&mut self, id: u64) -> Result<(WorkUnit, usize), String> {
        let key = match &mut self.order {
            Order::Lnni(inputs) => inputs.next_index(),
            Order::Cycle(next) => {
                let key = *next;
                *next = (key + 1) % self.calls.len();
                key
            }
        };
        Ok((self.unit(id, key)?, key))
    }

    /// The unit that performs call `key`, numbered `id`.
    fn unit(&self, id: u64, key: usize) -> Result<WorkUnit, String> {
        let call = &self.calls[key];
        Ok(match self.shape {
            Shape::Library => {
                let args = pickle::serialize_args(&call.args).map_err(|e| e.to_string())?;
                let mut c = FunctionCall::new(
                    InvocationId(id),
                    self.library.spec.name.clone(),
                    call.function,
                    args,
                );
                c.resources = Resources::new(1, 512, 512);
                WorkUnit::Call(c)
            }
            Shape::Task => {
                let mut task = TaskSpec::new(TaskId(id), "lnni-stateless");
                task.code = vec![CodeArtifact::Source {
                    name: "lnni".into(),
                    text: self.stateless_source.clone(),
                }];
                task.function = Some("stateless_infer".into());
                let mut args = vec![Value::Int(LNNI_LAYERS), Value::Int(LNNI_DIM)];
                args.extend(call.args.iter().cloned());
                task.args_blob = pickle::serialize_args(&args).map_err(|e| e.to_string())?;
                task.resources = Resources::new(1, 512, 512);
                WorkUnit::Task(task)
            }
        })
    }
}

/// The number the benchmark gave a unit.
pub fn unit_number(unit: UnitId) -> u64 {
    match unit {
        UnitId::Call(i) => i.0,
        UnitId::Task(t) => t.0,
    }
}

pub fn candidate_list(candidates: &[i64]) -> Value {
    Value::list(candidates.iter().map(|m| Value::Int(*m)).collect())
}

/// Serialized results of `calls` on a warm interpreter.
pub fn replay(interp: &mut Interp, calls: &[Call]) -> Result<Vec<Vec<u8>>, String> {
    calls
        .iter()
        .map(|c| {
            let v = interp
                .call_global(c.function, &c.args)
                .map_err(|e| format!("replaying {}: {e}", c.function))?;
            pickle::serialize_value(&v).map_err(|e| e.to_string())
        })
        .collect()
}
