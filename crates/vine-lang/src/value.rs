//! Runtime values.
//!
//! Values are reference-counted and **not thread-safe** by design: a library
//! process owns its interpreter and namespace outright, and anything that
//! crosses a worker/library/manager boundary does so *serialized* — exactly
//! as in the paper, where results are serialized to files in the
//! invocation's sandbox (§3.4 step 4).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;
use vine_core::{Result, VineError};

use crate::ast::FuncDef;

/// A dense row-major f64 tensor — the stand-in for NumPy arrays / model
/// parameter blobs in the LNNI application.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    pub shape: Vec<usize>,
    pub data: Rc<Vec<f64>>,
}

impl Tensor {
    pub fn new(shape: Vec<usize>, data: Vec<f64>) -> Result<Tensor> {
        let expect: usize = shape.iter().product();
        if expect != data.len() {
            return Err(VineError::Lang(format!(
                "tensor shape {:?} wants {} elements, got {}",
                shape,
                expect,
                data.len()
            )));
        }
        Ok(Tensor {
            shape,
            data: Rc::new(data),
        })
    }

    pub fn zeros(shape: Vec<usize>) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor {
            shape,
            data: Rc::new(vec![0.0; n]),
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A module-level namespace: an interpreter's globals, or a source
/// module's members.
pub type Namespace = Rc<RefCell<BTreeMap<String, Value>>>;

/// A user-defined function *object*: code plus a handle to the global
/// namespace of the interpreter that defined it. Invocations of the same
/// function share that namespace — this is the in-memory context the
/// paper's L3 level retains and reuses.
pub struct Function {
    pub def: Rc<FuncDef>,
    /// The defining interpreter's globals. Functions read module-level
    /// state (e.g. a model registered by `context_setup`) through this.
    pub globals: Namespace,
    /// Parameter names interned once at construction, so every call binds
    /// arguments with `Rc` clones instead of fresh `String` allocations.
    pub param_names: Vec<Rc<str>>,
    /// Lazily attached bytecode (see [`crate::compile`]); filled on first
    /// VM call, or pre-seeded when the function comes from a shipped
    /// compiled image, so repeat invocations never recompile.
    pub compiled: RefCell<Option<Rc<crate::bytecode::CompiledFn>>>,
}

impl Function {
    pub fn new(def: Rc<FuncDef>, globals: Namespace) -> Function {
        let param_names = def.params.iter().map(|p| Rc::from(p.as_str())).collect();
        Function {
            def,
            globals,
            param_names,
            compiled: RefCell::new(None),
        }
    }
}

impl fmt::Debug for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<function {}>", display_fn_name(&self.def))
    }
}

fn display_fn_name(def: &FuncDef) -> &str {
    if def.name.is_empty() {
        "<lambda>"
    } else {
        &def.name
    }
}

/// A native (Rust-implemented) function, the mechanism behind "software
/// dependencies": imported modules expose these.
pub struct NativeFunc {
    pub name: String,
    #[allow(clippy::type_complexity)]
    pub f: Box<dyn Fn(&[Value]) -> Result<Value>>,
}

impl fmt::Debug for NativeFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<native {}>", self.name)
    }
}

/// An imported module: a named bag of members.
#[derive(Debug)]
pub struct ModuleObj {
    pub name: String,
    /// Shared by `Rc` with the defining interpreter's globals for source
    /// modules, so module functions that mutate their own module-level
    /// state stay visible through attribute reads — and importing never
    /// clones the whole namespace.
    pub members: Namespace,
}

impl Drop for ModuleObj {
    /// A source module owns the namespace it adopted from the interpreter
    /// that ran its source, so it gives the namespace back the same way.
    fn drop(&mut self) {
        release_namespace(&self.members);
    }
}

/// Free a namespace as its owner (an [`Interp`](crate::Interp) or a
/// [`ModuleObj`]) drops, unless something outside can still reach it.
///
/// A namespace that defines a function is an `Rc` cycle: the map holds the
/// `Value::Func` and the function holds the map, so dropping the owner alone
/// frees nothing. This takes a census of the lists, dicts, functions,
/// modules and namespaces reachable from `ns`, counting the strong
/// references each gets from inside that graph, plus the owner's own on
/// `ns`. A node with more strong references than that is held from outside.
/// If `ns` is reachable from such a node it is left alone: a function value
/// kept past its interpreter still runs against it. Otherwise nothing can
/// read `ns` again, so its contents are taken out and dropped, which breaks
/// the cycle.
///
/// Cycles a program builds in its own containers (`push(xs, xs)`) are not
/// namespaces and still leak, as in any reference-counted runtime.
pub(crate) fn release_namespace(ns: &Namespace) {
    // held by the owner alone: the ordinary drop frees it
    if Rc::strong_count(ns) == 1 {
        return;
    }
    let mut census = Census::default();
    let root = census.map(ns);
    census.nodes[root].held += 1;
    if census.busy || census.reachable_from_outside(root) {
        return;
    }
    let Ok(mut map) = ns.try_borrow_mut() else {
        return;
    };
    let contents = std::mem::take(&mut *map);
    // end the borrow first: dropping the contents releases other
    // namespaces, whose census may walk back into this one
    drop(map);
    drop(contents);
}

/// The reference graph reachable from one namespace (see
/// [`release_namespace`]).
#[derive(Default)]
struct Census {
    /// Allocation address → index into `nodes`.
    index: HashMap<*const (), usize>,
    nodes: Vec<Node>,
    /// A cell on the way was mutably borrowed, so something is running
    /// against the graph: leave it alone.
    busy: bool,
}

struct Node {
    /// `Rc::strong_count` of the allocation.
    strong: usize,
    /// Strong references to it from nodes in the census.
    held: usize,
    /// Nodes it holds a strong reference to, once per reference.
    holds: Vec<usize>,
}

impl Census {
    /// The node for one allocation, and whether this visit is its first.
    fn node<T: ?Sized>(&mut self, rc: &Rc<T>) -> (usize, bool) {
        let addr = Rc::as_ptr(rc) as *const ();
        if let Some(&i) = self.index.get(&addr) {
            return (i, false);
        }
        let i = self.nodes.len();
        self.nodes.push(Node {
            strong: Rc::strong_count(rc),
            held: 0,
            holds: Vec::new(),
        });
        self.index.insert(addr, i);
        (i, true)
    }

    fn link(&mut self, from: usize, to: usize) {
        self.nodes[to].held += 1;
        self.nodes[from].holds.push(to);
    }

    fn link_all<'a>(&mut self, from: usize, values: impl Iterator<Item = &'a Value>) {
        for v in values {
            if let Some(to) = self.value(v) {
                self.link(from, to);
            }
        }
    }

    /// A namespace or dict (both are string-keyed maps).
    fn map(&mut self, map: &Namespace) -> usize {
        let (i, first) = self.node(map);
        if first {
            match map.try_borrow() {
                Ok(entries) => self.link_all(i, entries.values()),
                Err(_) => self.busy = true,
            }
        }
        i
    }

    /// The node a value holds, or `None` for a value that can hold nothing
    /// reaching a namespace.
    fn value(&mut self, v: &Value) -> Option<usize> {
        Some(match v {
            Value::List(l) => {
                let (i, first) = self.node(l);
                if first {
                    match l.try_borrow() {
                        Ok(items) => self.link_all(i, items.iter()),
                        Err(_) => self.busy = true,
                    }
                }
                i
            }
            Value::Dict(d) => self.map(d),
            Value::Func(f) => {
                let (i, first) = self.node(f);
                if first {
                    let ns = self.map(&f.globals);
                    self.link(i, ns);
                }
                i
            }
            Value::Module(m) => {
                let (i, first) = self.node(m);
                if first {
                    let ns = self.map(&m.members);
                    self.link(i, ns);
                }
                i
            }
            _ => return None,
        })
    }

    /// Whether `root` is reachable from a node something outside the
    /// census holds.
    fn reachable_from_outside(&self, root: usize) -> bool {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].strong > self.nodes[i].held)
            .collect();
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut seen[i], true) {
                continue;
            }
            if i == root {
                return true;
            }
            stack.extend(&self.nodes[i].holds);
        }
        false
    }
}

/// Any vinescript value.
#[derive(Clone, Debug)]
pub enum Value {
    None,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Rc<str>),
    Bytes(Rc<Vec<u8>>),
    List(Rc<RefCell<Vec<Value>>>),
    Dict(Rc<RefCell<BTreeMap<String, Value>>>),
    Tensor(Rc<Tensor>),
    Func(Rc<Function>),
    Native(Rc<NativeFunc>),
    Module(Rc<ModuleObj>),
}

impl Value {
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(Rc::from(s.into().into_boxed_str()))
    }

    pub fn list(items: Vec<Value>) -> Value {
        Value::List(Rc::new(RefCell::new(items)))
    }

    pub fn dict(pairs: impl IntoIterator<Item = (String, Value)>) -> Value {
        Value::Dict(Rc::new(RefCell::new(pairs.into_iter().collect())))
    }

    pub fn tensor(t: Tensor) -> Value {
        Value::Tensor(Rc::new(t))
    }

    pub fn type_name(&self) -> &'static str {
        match self {
            Value::None => "none",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::Bytes(_) => "bytes",
            Value::List(_) => "list",
            Value::Dict(_) => "dict",
            Value::Tensor(_) => "tensor",
            Value::Func(_) => "function",
            Value::Native(_) => "native function",
            Value::Module(_) => "module",
        }
    }

    pub fn truthy(&self) -> bool {
        match self {
            Value::None => false,
            Value::Bool(b) => *b,
            Value::Int(v) => *v != 0,
            Value::Float(v) => *v != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Bytes(b) => !b.is_empty(),
            Value::List(l) => !l.borrow().is_empty(),
            Value::Dict(d) => !d.borrow().is_empty(),
            Value::Tensor(t) => !t.is_empty(),
            Value::Func(_) | Value::Native(_) | Value::Module(_) => true,
        }
    }

    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            Value::Bool(b) => Ok(*b as i64),
            other => Err(VineError::Lang(format!(
                "expected int, got {}",
                other.type_name()
            ))),
        }
    }

    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(v) => Ok(*v),
            Value::Int(v) => Ok(*v as f64),
            Value::Bool(b) => Ok(*b as i64 as f64),
            other => Err(VineError::Lang(format!(
                "expected float, got {}",
                other.type_name()
            ))),
        }
    }

    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(VineError::Lang(format!(
                "expected str, got {}",
                other.type_name()
            ))),
        }
    }

    pub fn as_tensor(&self) -> Result<&Rc<Tensor>> {
        match self {
            Value::Tensor(t) => Ok(t),
            other => Err(VineError::Lang(format!(
                "expected tensor, got {}",
                other.type_name()
            ))),
        }
    }

    /// Structure-preserving deep copy. This is how the live runtime models
    /// `fork`: the child library gets its own copy of the namespace
    /// (copy-on-write in a real fork; a deep clone here) so mutations don't
    /// leak back into the shared context (§2.1.4).
    pub fn deep_clone(&self) -> Value {
        match self {
            Value::List(l) => Value::list(l.borrow().iter().map(Value::deep_clone).collect()),
            Value::Dict(d) => Value::Dict(Rc::new(RefCell::new(
                d.borrow()
                    .iter()
                    .map(|(k, v)| (k.clone(), v.deep_clone()))
                    .collect(),
            ))),
            // tensors are immutable: sharing the Rc is semantically a copy
            other => other.clone(),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (None, None) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a == b,
            (Int(a), Float(b)) | (Float(b), Int(a)) => *a as f64 == *b,
            (Str(a), Str(b)) => a == b,
            (Bytes(a), Bytes(b)) => a == b,
            (List(a), List(b)) => *a.borrow() == *b.borrow(),
            (Dict(a), Dict(b)) => *a.borrow() == *b.borrow(),
            (Tensor(a), Tensor(b)) => a == b,
            (Func(a), Func(b)) => Rc::ptr_eq(a, b),
            (Native(a), Native(b)) => Rc::ptr_eq(a, b),
            (Module(a), Module(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::None => write!(f, "none"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Bytes(b) => write!(f, "<bytes len={}>", b.len()),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, it) in items.borrow().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{it}")?;
                }
                write!(f, "]")
            }
            Value::Dict(d) => {
                write!(f, "{{")?;
                for (i, (k, v)) in d.borrow().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            Value::Tensor(t) => write!(f, "<tensor {:?}>", t.shape),
            Value::Func(func) => write!(f, "{func:?}"),
            Value::Native(n) => write!(f, "{n:?}"),
            Value::Module(m) => write!(f, "<module {}>", m.name),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::None.truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Int(3).truthy());
        assert!(!Value::str("").truthy());
        assert!(Value::str("x").truthy());
        assert!(!Value::list(vec![]).truthy());
        assert!(Value::list(vec![Value::None]).truthy());
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_ne!(Value::Int(2), Value::Float(2.5));
        assert_ne!(Value::Int(2), Value::str("2"));
    }

    #[test]
    fn tensor_shape_validation() {
        assert!(Tensor::new(vec![2, 3], vec![0.0; 6]).is_ok());
        assert!(Tensor::new(vec![2, 3], vec![0.0; 5]).is_err());
        let z = Tensor::zeros(vec![4, 4]);
        assert_eq!(z.len(), 16);
    }

    #[test]
    fn deep_clone_isolates_mutation() {
        let original = Value::list(vec![Value::Int(1), Value::list(vec![Value::Int(2)])]);
        let copy = original.deep_clone();
        if let Value::List(items) = &original {
            if let Value::List(inner) = &items.borrow()[1] {
                inner.borrow_mut().push(Value::Int(99));
            }
        }
        // the copy must not see the mutation
        if let Value::List(items) = &copy {
            if let Value::List(inner) = &items.borrow()[1] {
                assert_eq!(inner.borrow().len(), 1);
            } else {
                panic!("expected inner list");
            }
        } else {
            panic!("expected list");
        }
    }

    #[test]
    fn shallow_clone_shares_mutation() {
        let original = Value::list(vec![Value::Int(1)]);
        let alias = original.clone();
        if let Value::List(items) = &original {
            items.borrow_mut().push(Value::Int(2));
        }
        if let Value::List(items) = &alias {
            assert_eq!(items.borrow().len(), 2);
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(
            Value::list(vec![Value::Int(1), Value::str("a")]).to_string(),
            "[1, a]"
        );
        assert_eq!(
            Value::dict([("k".to_string(), Value::Int(1))]).to_string(),
            "{k: 1}"
        );
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::Bool(true).as_int().unwrap(), 1);
        assert_eq!(Value::Int(3).as_float().unwrap(), 3.0);
        assert!(Value::str("x").as_int().is_err());
        assert_eq!(Value::from("hi").as_str().unwrap(), "hi");
    }
}
