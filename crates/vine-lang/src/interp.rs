//! The tree-walking interpreter.
//!
//! One [`Interp`] is one "interpreter process": in the live runtime, each
//! library daemon owns one, executes its context-setup function once, and
//! then serves invocations against the retained global namespace — the
//! paper's L3 retain mechanism (§2.2.3). Wrapped tasks (L1/L2) instead
//! build a fresh `Interp` per execution, paying context reconstruction
//! every time.

use crate::ast::{BinOp, Expr, FuncDef, Program, Stmt, StmtKind, Target, UnOp};
use crate::builtins;
use crate::bytecode::{CompiledFn, CompiledModule};
use crate::modules::ModuleRegistry;
use crate::value::{release_namespace, Function, Namespace, Value};
use crate::{compile, vm};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use vine_core::{Result, VineError};

/// Which execution engine this interpreter runs programs and function
/// bodies on. Both engines share all other interpreter state (globals,
/// modules, output, step budget) and are semantically identical; the VM is
/// the fast path for retained library contexts, the tree-walker the
/// differential reference.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Engine {
    #[default]
    Tree,
    Vm,
}

/// Local variable scope for one function activation. Keys are `Rc<str>`
/// so re-assignment and parameter binding never re-clone the name text.
struct Frame {
    locals: BTreeMap<Rc<str>, Value>,
    global_decls: BTreeSet<String>,
}

enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// An interpreter instance: globals + module registry + captured output.
pub struct Interp {
    /// Module-level namespace. Shared (by `Rc`) with every function defined
    /// in it, so `global` writes from context setup are visible to later
    /// invocations. Dropping the interpreter frees it unless something
    /// outside still reaches it (see [`release_namespace`]).
    pub globals: Namespace,
    registry: ModuleRegistry,
    /// Cache of already-imported modules.
    loaded: BTreeMap<String, Value>,
    /// Captured `print` output.
    pub output: Vec<String>,
    steps: u64,
    /// Abort execution after this many evaluation steps (guards tests and
    /// fuzzing against runaway loops).
    pub step_limit: u64,
    /// Which engine executes programs and function bodies.
    pub engine: Engine,
    /// Bytecode cache keyed by `FuncDef` identity. The `Rc<FuncDef>` is
    /// retained so the address can never be reused by a freed definition.
    compiled: BTreeMap<usize, (Rc<FuncDef>, Rc<CompiledFn>)>,
    /// Recycled VM local-slot buffers, so steady-state calls allocate
    /// nothing.
    slot_pool: Vec<Vec<Option<Value>>>,
    /// Recycled VM operand stacks.
    stack_pool: Vec<Vec<Value>>,
}

impl Drop for Interp {
    fn drop(&mut self) {
        release_namespace(&self.globals);
    }
}

impl Default for Interp {
    fn default() -> Self {
        Self::new()
    }
}

impl Interp {
    pub fn new() -> Interp {
        Interp::with_registry(ModuleRegistry::new())
    }

    pub fn with_registry(registry: ModuleRegistry) -> Interp {
        Interp {
            globals: Rc::new(RefCell::new(BTreeMap::new())),
            registry,
            loaded: BTreeMap::new(),
            output: Vec::new(),
            steps: 0,
            step_limit: 200_000_000,
            engine: Engine::Tree,
            compiled: BTreeMap::new(),
            slot_pool: Vec::new(),
            stack_pool: Vec::new(),
        }
    }

    pub fn registry(&self) -> &ModuleRegistry {
        &self.registry
    }

    /// Parse and execute source at module level.
    pub fn exec_source(&mut self, src: &str) -> Result<()> {
        let prog = crate::parse(src)?;
        self.exec_program(&prog)
    }

    /// Execute a parsed program at module level.
    pub fn exec_program(&mut self, prog: &Program) -> Result<()> {
        if self.engine == Engine::Vm {
            let top = compile::compile_program(prog);
            return vm::run_toplevel(self, &top);
        }
        for stmt in prog {
            match self.exec_stmt(stmt, None)? {
                Flow::Normal => {}
                Flow::Return(_) => return Err(VineError::Lang("return outside function".into())),
                Flow::Break | Flow::Continue => {
                    return Err(VineError::Lang("break/continue outside loop".into()))
                }
            }
        }
        Ok(())
    }

    /// Execute an already-compiled module image at module level, skipping
    /// parse and compile entirely — the install-once/invoke-many path for
    /// shipped library contexts.
    pub fn exec_compiled(&mut self, module: &CompiledModule) -> Result<()> {
        vm::run_toplevel(self, &module.top)
    }

    /// Evaluate a single expression in the global scope.
    pub fn eval_source(&mut self, src: &str) -> Result<Value> {
        let prog = crate::parse(src)?;
        match prog.as_slice() {
            [Stmt {
                kind: StmtKind::Expr(e),
                ..
            }] => self.eval(e, None),
            _ => Err(VineError::Lang(
                "eval_source expects exactly one expression".into(),
            )),
        }
    }

    /// Look up a global by name.
    pub fn get_global(&self, name: &str) -> Option<Value> {
        self.globals.borrow().get(name).cloned()
    }

    /// Set a global.
    pub fn set_global(&mut self, name: impl Into<String>, value: Value) {
        self.globals.borrow_mut().insert(name.into(), value);
    }

    /// Every bound global name, sorted. Differential tests use this to
    /// compare whole namespaces between execution variants.
    pub fn global_names(&self) -> Vec<String> {
        self.globals.borrow().keys().cloned().collect()
    }

    /// Call a function bound in globals with the given arguments.
    pub fn call_global(&mut self, name: &str, args: &[Value]) -> Result<Value> {
        let f = self
            .get_global(name)
            .ok_or_else(|| VineError::Lang(format!("undefined function: {name}")))?;
        self.call_value(&f, args)
    }

    /// Call any callable value.
    pub fn call_value(&mut self, callee: &Value, args: &[Value]) -> Result<Value> {
        match callee {
            Value::Func(f) => self.call_function(f, args),
            Value::Native(n) => (n.f)(args),
            other => Err(VineError::Lang(format!(
                "{} is not callable",
                other.type_name()
            ))),
        }
    }

    fn call_function(&mut self, f: &Rc<Function>, args: &[Value]) -> Result<Value> {
        if args.len() != f.def.params.len() {
            return Err(VineError::Lang(format!(
                "function {} takes {} arguments, got {}",
                if f.def.name.is_empty() {
                    "<lambda>"
                } else {
                    &f.def.name
                },
                f.def.params.len(),
                args.len()
            )));
        }
        // the function executes against its *defining* globals, which may
        // belong to a different interpreter than `self` (e.g. a deserialized
        // function re-bound on a worker)
        let saved = Rc::clone(&self.globals);
        self.globals = Rc::clone(&f.globals);
        let result = if self.engine == Engine::Vm {
            let code = self.compiled_for(f);
            vm::run_function(self, &code, args)
        } else {
            let mut frame = Frame {
                locals: f
                    .param_names
                    .iter()
                    .cloned()
                    .zip(args.iter().cloned())
                    .collect(),
                global_decls: BTreeSet::new(),
            };
            (|| -> Result<Value> {
                for stmt in &f.def.body {
                    match self.exec_stmt(stmt, Some(&mut frame))? {
                        Flow::Normal => {}
                        Flow::Return(v) => return Ok(v),
                        Flow::Break | Flow::Continue => {
                            return Err(VineError::Lang("break/continue outside loop".into()))
                        }
                    }
                }
                Ok(Value::None)
            })()
        };
        self.globals = saved;
        result
    }

    /// The bytecode for a function value: from its inline cache, the
    /// interpreter-wide cache, or compiled on first call. Functions created
    /// by VM `MakeFunc` (including ones decoded from a shipped image) are
    /// pre-seeded and never hit the compiler here.
    fn compiled_for(&mut self, f: &Function) -> Rc<CompiledFn> {
        if let Some(c) = f.compiled.borrow().as_ref() {
            return Rc::clone(c);
        }
        let key = Rc::as_ptr(&f.def) as usize;
        let code = match self.compiled.get(&key) {
            Some((_, c)) => Rc::clone(c),
            None => {
                let c = Rc::new(compile::compile_function(&f.def));
                self.compiled
                    .insert(key, (Rc::clone(&f.def), Rc::clone(&c)));
                c
            }
        };
        *f.compiled.borrow_mut() = Some(Rc::clone(&code));
        code
    }

    /// Record already-compiled bytecode for a definition so later function
    /// values over the same `FuncDef` reuse it.
    pub(crate) fn cache_compiled(&mut self, def: &Rc<FuncDef>, code: &Rc<CompiledFn>) {
        let key = Rc::as_ptr(def) as usize;
        self.compiled
            .entry(key)
            .or_insert_with(|| (Rc::clone(def), Rc::clone(code)));
    }

    pub(crate) fn take_slot_buf(&mut self) -> Vec<Option<Value>> {
        self.slot_pool.pop().unwrap_or_default()
    }

    pub(crate) fn put_slot_buf(&mut self, mut buf: Vec<Option<Value>>) {
        buf.clear();
        if self.slot_pool.len() < 64 {
            self.slot_pool.push(buf);
        }
    }

    pub(crate) fn take_stack_buf(&mut self) -> Vec<Value> {
        self.stack_pool.pop().unwrap_or_default()
    }

    pub(crate) fn put_stack_buf(&mut self, mut buf: Vec<Value>) {
        buf.clear();
        if self.stack_pool.len() < 64 {
            self.stack_pool.push(buf);
        }
    }

    /// Global write that overwrites in place when the key exists, cloning
    /// the name only for genuinely new bindings.
    #[inline]
    pub(crate) fn set_global_fast(&self, name: &str, value: Value) {
        let mut globals = self.globals.borrow_mut();
        match globals.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                globals.insert(name.to_string(), value);
            }
        }
    }

    #[inline]
    pub(crate) fn tick(&mut self) -> Result<()> {
        self.steps += 1;
        if self.steps > self.step_limit {
            return Err(VineError::Lang(format!(
                "step limit exceeded ({} steps)",
                self.step_limit
            )));
        }
        Ok(())
    }

    fn exec_block(&mut self, stmts: &[Stmt], frame: Option<&mut Frame>) -> Result<Flow> {
        // reborrow pattern: we need to pass the frame to each statement
        let mut frame = frame;
        for stmt in stmts {
            let flow = self.exec_stmt(stmt, frame.as_deref_mut())?;
            if !matches!(flow, Flow::Normal) {
                return Ok(flow);
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, mut frame: Option<&mut Frame>) -> Result<Flow> {
        self.tick()?;
        match &stmt.kind {
            StmtKind::Import(name) => {
                let module = self.import_module(name)?;
                self.assign_var(name, module, frame);
                Ok(Flow::Normal)
            }
            StmtKind::FuncDef(def) => {
                let func = Value::Func(Rc::new(Function::new(
                    Rc::clone(def),
                    Rc::clone(&self.globals),
                )));
                self.assign_var(&def.name, func, frame);
                Ok(Flow::Normal)
            }
            StmtKind::Global(names) => {
                if let Some(fr) = frame.as_deref_mut() {
                    for n in names {
                        fr.global_decls.insert(n.clone());
                    }
                }
                // at module level `global` is a no-op
                Ok(Flow::Normal)
            }
            StmtKind::Assign(target, expr) => {
                let value = self.eval(expr, frame.as_deref_mut())?;
                match target {
                    Target::Var(name) => self.assign_var(name, value, frame),
                    Target::Index(obj, idx) => {
                        let obj_v = self.eval(obj, frame.as_deref_mut())?;
                        let idx_v = self.eval(idx, frame.as_deref_mut())?;
                        self.index_assign(&obj_v, &idx_v, value)?;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::If(arms, els) => {
                for (cond, body) in arms {
                    if self.eval(cond, frame.as_deref_mut())?.truthy() {
                        return self.exec_block(body, frame);
                    }
                }
                if let Some(body) = els {
                    return self.exec_block(body, frame);
                }
                Ok(Flow::Normal)
            }
            StmtKind::While(cond, body) => {
                while self.eval(cond, frame.as_deref_mut())?.truthy() {
                    self.tick()?;
                    match self.exec_block(body, frame.as_deref_mut())? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For(var, iter, body) => {
                let items = self.iterable_items(iter, frame.as_deref_mut())?;
                for item in items {
                    self.tick()?;
                    self.assign_var(var, item, frame.as_deref_mut());
                    match self.exec_block(body, frame.as_deref_mut())? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Return(value) => {
                let v = match value {
                    Some(e) => self.eval(e, frame)?,
                    None => Value::None,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Expr(e) => {
                self.eval(e, frame)?;
                Ok(Flow::Normal)
            }
        }
    }

    fn iterable_items(&mut self, iter: &Expr, frame: Option<&mut Frame>) -> Result<Vec<Value>> {
        let v = self.eval(iter, frame)?;
        match v {
            Value::List(items) => Ok(items.borrow().clone()),
            Value::Dict(d) => Ok(d.borrow().keys().map(|k| Value::str(k.clone())).collect()),
            Value::Str(s) => Ok(s.chars().map(|c| Value::str(c.to_string())).collect()),
            other => Err(VineError::Lang(format!(
                "{} is not iterable",
                other.type_name()
            ))),
        }
    }

    fn assign_var(&mut self, name: &str, value: Value, frame: Option<&mut Frame>) {
        match frame {
            Some(fr) if !fr.global_decls.contains(name) => {
                // re-assignment overwrites in place; the name text is only
                // cloned the first time a local is created
                match fr.locals.get_mut(name) {
                    Some(slot) => *slot = value,
                    None => {
                        fr.locals.insert(Rc::from(name), value);
                    }
                }
            }
            _ => self.set_global_fast(name, value),
        }
    }

    pub(crate) fn index_assign(&mut self, obj: &Value, idx: &Value, value: Value) -> Result<()> {
        match obj {
            Value::List(items) => {
                let i = idx.as_int()?;
                let mut items = items.borrow_mut();
                let len = items.len() as i64;
                let i = if i < 0 { i + len } else { i };
                if i < 0 || i >= len {
                    return Err(VineError::Lang(format!(
                        "list index {i} out of range (len {len})"
                    )));
                }
                items[i as usize] = value;
                Ok(())
            }
            Value::Dict(d) => {
                let k = idx.as_str()?.to_string();
                d.borrow_mut().insert(k, value);
                Ok(())
            }
            other => Err(VineError::Lang(format!(
                "{} does not support item assignment",
                other.type_name()
            ))),
        }
    }

    /// Import a module by name (what `import name` evaluates to), loading
    /// it from the registry on first use.
    pub fn import_module(&mut self, name: &str) -> Result<Value> {
        if let Some(m) = self.loaded.get(name) {
            return Ok(m.clone());
        }
        let module = if let Some(m) = self.registry.build_native(name) {
            m
        } else if let Some(src) = self.registry.source_module(name).map(str::to_string) {
            // execute the module source in a fresh namespace sharing this
            // registry, then adopt its globals map *as* the module's member
            // table — the functions defined in it close over the same map,
            // so no copy is needed (or wanted)
            let mut sub = Interp::with_registry(self.registry.clone());
            sub.engine = self.engine;
            sub.exec_source(&src)?;
            Value::Module(Rc::new(crate::value::ModuleObj {
                name: name.to_string(),
                members: Rc::clone(&sub.globals),
            }))
        } else {
            return Err(self.registry.missing(name));
        };
        self.loaded.insert(name.to_string(), module.clone());
        Ok(module)
    }

    fn eval(&mut self, expr: &Expr, mut frame: Option<&mut Frame>) -> Result<Value> {
        self.tick()?;
        match expr {
            Expr::None => Ok(Value::None),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Float(v) => Ok(Value::Float(*v)),
            Expr::Str(s) => Ok(Value::str(s.clone())),
            Expr::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval(item, frame.as_deref_mut())?);
                }
                Ok(Value::list(out))
            }
            Expr::Dict(pairs) => {
                let mut out = BTreeMap::new();
                for (k, v) in pairs {
                    let key = self.eval(k, frame.as_deref_mut())?.as_str()?.to_string();
                    let val = self.eval(v, frame.as_deref_mut())?;
                    out.insert(key, val);
                }
                Ok(Value::Dict(Rc::new(RefCell::new(out))))
            }
            Expr::Var(name) => self.lookup(name, frame.as_deref()),
            Expr::Attr(obj, attr) => {
                let obj = self.eval(obj, frame)?;
                match obj {
                    Value::Module(m) => m.members.borrow().get(attr).cloned().ok_or_else(|| {
                        VineError::Lang(format!("module {} has no member {attr}", m.name))
                    }),
                    other => Err(VineError::Lang(format!(
                        "{} has no attributes",
                        other.type_name()
                    ))),
                }
            }
            Expr::Index(obj, idx) => {
                let obj = self.eval(obj, frame.as_deref_mut())?;
                let idx = self.eval(idx, frame)?;
                self.index_get(&obj, &idx)
            }
            Expr::Call(callee, args) => {
                // builtins may need interpreter services (print capture,
                // eval), so builtin dispatch happens here
                let mut arg_vals = Vec::with_capacity(args.len());
                for a in args {
                    arg_vals.push(self.eval(a, frame.as_deref_mut())?);
                }
                if let Expr::Var(name) = callee.as_ref() {
                    let shadowed = self.name_resolves(name, frame.as_deref());
                    if !shadowed {
                        if let Some(result) = builtins::call_builtin(self, name, &arg_vals)? {
                            return Ok(result);
                        }
                    }
                }
                let callee = self.eval(callee, frame)?;
                self.call_value(&callee, &arg_vals)
            }
            Expr::Unary(op, inner) => {
                let v = self.eval(inner, frame)?;
                unary_op(*op, &v)
            }
            Expr::Binary(op, lhs, rhs) => {
                // short-circuit logical operators
                match op {
                    BinOp::And => {
                        let l = self.eval(lhs, frame.as_deref_mut())?;
                        if !l.truthy() {
                            return Ok(l);
                        }
                        return self.eval(rhs, frame);
                    }
                    BinOp::Or => {
                        let l = self.eval(lhs, frame.as_deref_mut())?;
                        if l.truthy() {
                            return Ok(l);
                        }
                        return self.eval(rhs, frame);
                    }
                    _ => {}
                }
                let l = self.eval(lhs, frame.as_deref_mut())?;
                let r = self.eval(rhs, frame)?;
                binary_op(*op, &l, &r)
            }
            Expr::Lambda(def) => Ok(Value::Func(Rc::new(Function::new(
                Rc::clone(def),
                Rc::clone(&self.globals),
            )))),
        }
    }

    fn name_resolves(&self, name: &str, frame: Option<&Frame>) -> bool {
        if let Some(fr) = frame {
            if fr.locals.contains_key(name) && !fr.global_decls.contains(name) {
                return true;
            }
        }
        self.globals.borrow().contains_key(name)
    }

    fn lookup(&self, name: &str, frame: Option<&Frame>) -> Result<Value> {
        if let Some(fr) = frame {
            if !fr.global_decls.contains(name) {
                if let Some(v) = fr.locals.get(name) {
                    return Ok(v.clone());
                }
            }
        }
        self.globals
            .borrow()
            .get(name)
            .cloned()
            .ok_or_else(|| VineError::Lang(format!("undefined variable: {name}")))
    }

    #[inline]
    pub(crate) fn index_get(&self, obj: &Value, idx: &Value) -> Result<Value> {
        match obj {
            Value::List(items) => {
                let items = items.borrow();
                let len = items.len() as i64;
                let i = idx.as_int()?;
                let i = if i < 0 { i + len } else { i };
                if i < 0 || i >= len {
                    return Err(VineError::Lang(format!(
                        "list index {i} out of range (len {len})"
                    )));
                }
                Ok(items[i as usize].clone())
            }
            Value::Dict(d) => {
                let k = idx.as_str()?;
                d.borrow()
                    .get(k)
                    .cloned()
                    .ok_or_else(|| VineError::Lang(format!("key not found: {k}")))
            }
            Value::Str(s) => {
                // iterate once instead of materializing a Vec<char> per index
                let len = s.chars().count() as i64;
                let i = idx.as_int()?;
                let i = if i < 0 { i + len } else { i };
                if i < 0 || i >= len {
                    return Err(VineError::Lang(format!(
                        "string index {i} out of range (len {len})"
                    )));
                }
                let c = s.chars().nth(i as usize).expect("index checked in range");
                Ok(Value::str(c.to_string()))
            }
            Value::Tensor(t) => {
                let i = idx.as_int()?;
                let len = t.data.len() as i64;
                let i = if i < 0 { i + len } else { i };
                if i < 0 || i >= len {
                    return Err(VineError::Lang(format!(
                        "tensor index {i} out of range (len {len})"
                    )));
                }
                Ok(Value::Float(t.data[i as usize]))
            }
            other => Err(VineError::Lang(format!(
                "{} is not indexable",
                other.type_name()
            ))),
        }
    }

    /// Bind a function definition into this interpreter's globals, attaching
    /// it to *these* globals — used when reconstructing shipped functions on
    /// a worker.
    pub fn bind_function(&mut self, def: Rc<FuncDef>) {
        let name = def.name.clone();
        let func = Value::Func(Rc::new(Function::new(def, Rc::clone(&self.globals))));
        self.globals.borrow_mut().insert(name, func);
    }
}

/// Apply a unary operator to an already-evaluated value. Public for the
/// same reason as [`binary_op`]: constant folding must share the runtime's
/// exact semantics.
#[inline]
pub fn unary_op(op: UnOp, v: &Value) -> Result<Value> {
    match op {
        UnOp::Neg => match v {
            Value::Int(x) => Ok(Value::Int(x.checked_neg().ok_or_else(overflow)?)),
            Value::Float(x) => Ok(Value::Float(-x)),
            other => Err(VineError::Lang(format!(
                "cannot negate {}",
                other.type_name()
            ))),
        },
        UnOp::Not => Ok(Value::Bool(!v.truthy())),
    }
}

/// Apply a (non-short-circuit) binary operator to two already-evaluated
/// values. Public so static analyses (vine-flow constant propagation) can
/// fold operators with *exactly* the runtime semantics — same overflow
/// checks, same division rules — guaranteeing fold-then-run never diverges
/// from run. `And`/`Or` are short-circuited in `eval` and must not be
/// passed here.
#[inline]
pub fn binary_op(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    use Value::*;
    match op {
        Add => match (l, r) {
            (Int(a), Int(b)) => Ok(Int(a.checked_add(*b).ok_or_else(overflow)?)),
            (Str(a), Str(b)) => Ok(Value::str(format!("{a}{b}"))),
            (List(a), List(b)) => {
                let mut out = a.borrow().clone();
                out.extend(b.borrow().iter().cloned());
                Ok(Value::list(out))
            }
            _ => num_op(l, r, |a, b| a + b),
        },
        Sub => match (l, r) {
            (Int(a), Int(b)) => Ok(Int(a.checked_sub(*b).ok_or_else(overflow)?)),
            _ => num_op(l, r, |a, b| a - b),
        },
        Mul => match (l, r) {
            (Int(a), Int(b)) => Ok(Int(a.checked_mul(*b).ok_or_else(overflow)?)),
            (Str(a), Int(n)) => Ok(Value::str(a.repeat((*n).max(0) as usize))),
            _ => num_op(l, r, |a, b| a * b),
        },
        Div => match (l, r) {
            (Int(a), Int(b)) => {
                if *b == 0 {
                    Err(VineError::Lang("division by zero".into()))
                } else {
                    Ok(Int(a / b))
                }
            }
            _ => {
                let b = r.as_float()?;
                if b == 0.0 {
                    Err(VineError::Lang("division by zero".into()))
                } else {
                    Ok(Float(l.as_float()? / b))
                }
            }
        },
        Mod => match (l, r) {
            (Int(a), Int(b)) => {
                if *b == 0 {
                    Err(VineError::Lang("modulo by zero".into()))
                } else {
                    Ok(Int(a.rem_euclid(*b)))
                }
            }
            _ => Err(VineError::Lang("modulo requires integers".into())),
        },
        Eq => Ok(Bool(l == r)),
        Ne => Ok(Bool(l != r)),
        Lt | Le | Gt | Ge => {
            let ord = compare(l, r)?;
            Ok(Bool(match op {
                Lt => ord == std::cmp::Ordering::Less,
                Le => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            }))
        }
        And | Or => unreachable!("short-circuited in eval"),
    }
}

fn overflow() -> VineError {
    VineError::Lang("integer overflow".into())
}

fn num_op(l: &Value, r: &Value, f: impl Fn(f64, f64) -> f64) -> Result<Value> {
    Ok(Value::Float(f(l.as_float()?, r.as_float()?)))
}

fn compare(l: &Value, r: &Value) -> Result<std::cmp::Ordering> {
    use Value::*;
    match (l, r) {
        (Int(a), Int(b)) => Ok(a.cmp(b)),
        (Str(a), Str(b)) => Ok(a.cmp(b)),
        _ => {
            let (a, b) = (l.as_float()?, r.as_float()?);
            a.partial_cmp(&b)
                .ok_or_else(|| VineError::Lang("cannot compare NaN".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modules::native;

    fn run(src: &str) -> Interp {
        let mut interp = Interp::new();
        interp.exec_source(src).unwrap();
        interp
    }

    fn eval_global(src: &str, name: &str) -> Value {
        run(src).get_global(name).unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval_global("x = 2 + 3 * 4", "x"), Value::Int(14));
        assert_eq!(eval_global("x = (2 + 3) * 4", "x"), Value::Int(20));
        assert_eq!(eval_global("x = 7 / 2", "x"), Value::Int(3));
        assert_eq!(eval_global("x = 7.0 / 2", "x"), Value::Float(3.5));
        assert_eq!(eval_global("x = 7 % 3", "x"), Value::Int(1));
        assert_eq!(eval_global("x = -7 % 3", "x"), Value::Int(2)); // euclidean
        assert_eq!(eval_global("x = -(3 + 4)", "x"), Value::Int(-7));
    }

    #[test]
    fn string_ops() {
        assert_eq!(eval_global(r#"x = "ab" + "cd""#, "x"), Value::str("abcd"));
        assert_eq!(eval_global(r#"x = "ab" * 3"#, "x"), Value::str("ababab"));
        assert_eq!(eval_global(r#"x = "abc"[1]"#, "x"), Value::str("b"));
        assert_eq!(eval_global(r#"x = "abc"[-1]"#, "x"), Value::str("c"));
    }

    #[test]
    fn functions_and_recursion() {
        let src = r#"
            def fib(n) {
                if n < 2 { return n }
                return fib(n - 1) + fib(n - 2)
            }
            x = fib(15)
        "#;
        assert_eq!(eval_global(src, "x"), Value::Int(610));
    }

    #[test]
    fn closures_see_defining_globals() {
        let src = r#"
            base = 100
            def f(x) { return base + x }
            y = f(5)
            base = 200
            z = f(5)
        "#;
        let interp = run(src);
        assert_eq!(interp.get_global("y").unwrap(), Value::Int(105));
        // late binding: the global's current value is read at call time
        assert_eq!(interp.get_global("z").unwrap(), Value::Int(205));
    }

    #[test]
    fn global_statement_publishes_state() {
        // the paper's Fig 4 pattern: context setup registers a model in the
        // global namespace, the work function reads it
        let src = r#"
            def context_setup(params) {
                global model
                model = params * 2
            }
            def infer(x) { return model + x }
            context_setup(50)
            result = infer(1)
        "#;
        assert_eq!(eval_global(src, "result"), Value::Int(101));
    }

    #[test]
    fn locals_do_not_leak_without_global() {
        let src = r#"
            def f() { temp = 42 }
            f()
        "#;
        let interp = run(src);
        assert!(interp.get_global("temp").is_none());
    }

    #[test]
    fn loops_and_control_flow() {
        let src = r#"
            s = 0
            for i in range(10) {
                if i % 2 == 0 { continue }
                if i > 7 { break }
                s += i
            }
            n = 0
            while n < 5 { n += 1 }
        "#;
        let interp = run(src);
        assert_eq!(interp.get_global("s").unwrap(), Value::Int(1 + 3 + 5 + 7));
        assert_eq!(interp.get_global("n").unwrap(), Value::Int(5));
    }

    #[test]
    fn list_and_dict_manipulation() {
        let src = r#"
            xs = [1, 2, 3]
            xs[0] = 10
            push(xs, 4)
            d = {"a": 1}
            d["b"] = 2
            total = xs[0] + xs[3] + d["b"]
        "#;
        assert_eq!(eval_global(src, "total"), Value::Int(16));
    }

    #[test]
    fn lambda_values() {
        let src = r#"
            double = fn (x) { return x * 2 }
            y = double(21)
        "#;
        assert_eq!(eval_global(src, "y"), Value::Int(42));
    }

    #[test]
    fn higher_order_functions() {
        let src = r#"
            def apply(f, x) { return f(x) }
            y = apply(fn (v) { return v + 1 }, 41)
        "#;
        assert_eq!(eval_global(src, "y"), Value::Int(42));
    }

    #[test]
    fn import_native_module() {
        let mut reg = ModuleRegistry::new();
        reg.register_native("mathx", || {
            vec![native("square", |args| {
                let x = args[0].as_int()?;
                Ok(Value::Int(x * x))
            })]
        });
        let mut interp = Interp::with_registry(reg);
        interp
            .exec_source("import mathx\ny = mathx.square(9)")
            .unwrap();
        assert_eq!(interp.get_global("y").unwrap(), Value::Int(81));
    }

    #[test]
    fn import_source_module() {
        let mut reg = ModuleRegistry::new();
        reg.register_source("helpers", "def triple(x) { return x * 3 }");
        let mut interp = Interp::with_registry(reg);
        interp
            .exec_source("import helpers\ny = helpers.triple(14)")
            .unwrap();
        assert_eq!(interp.get_global("y").unwrap(), Value::Int(42));
    }

    #[test]
    fn missing_import_is_dependency_error() {
        let mut interp = Interp::new();
        let e = interp.exec_source("import numpy").unwrap_err();
        assert!(matches!(e, VineError::Dependency(_)), "{e:?}");
    }

    #[test]
    fn short_circuit_evaluation() {
        // rhs would divide by zero if evaluated
        let src = "x = false and 1 / 0\ny = true or 1 / 0";
        let interp = run(src);
        assert_eq!(interp.get_global("x").unwrap(), Value::Bool(false));
        assert_eq!(interp.get_global("y").unwrap(), Value::Bool(true));
    }

    #[test]
    fn runtime_errors() {
        let cases = [
            ("x = 1 / 0", "division by zero"),
            ("x = [1][5]", "out of range"),
            ("x = {\"a\": 1}[\"b\"]", "key not found"),
            ("undefined_fn(1)", "undefined"),
            ("x = nosuchvar", "undefined variable"),
            ("x = 1 + \"s\"", "expected float"),
        ];
        for (src, needle) in cases {
            let mut interp = Interp::new();
            let e = interp.exec_source(src).unwrap_err().to_string();
            assert!(e.contains(needle), "{src}: {e}");
        }
    }

    #[test]
    fn integer_overflow_is_caught() {
        let mut interp = Interp::new();
        let e = interp
            .exec_source("x = 9223372036854775807 + 1")
            .unwrap_err();
        assert!(e.to_string().contains("overflow"));
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let mut interp = Interp::new();
        interp.step_limit = 10_000;
        let e = interp.exec_source("while true { }").unwrap_err();
        assert!(e.to_string().contains("step limit"));
    }

    #[test]
    fn builtin_shadowing_by_user_definition() {
        // user-defined len replaces the builtin
        let src = r#"
            def len(x) { return 999 }
            y = len([1, 2, 3])
        "#;
        assert_eq!(eval_global(src, "y"), Value::Int(999));
    }

    #[test]
    fn for_over_dict_iterates_keys() {
        let src = r#"
            d = {"b": 2, "a": 1}
            ks = []
            for k in d { push(ks, k) }
        "#;
        let interp = run(src);
        // BTreeMap iteration: sorted keys — deterministic
        assert_eq!(
            interp.get_global("ks").unwrap(),
            Value::list(vec![Value::str("a"), Value::str("b")])
        );
    }

    #[test]
    fn bind_function_attaches_to_new_globals() {
        let def = Rc::new(crate::ast::FuncDef::new(
            "probe",
            vec![],
            vec![Stmt::dummy(StmtKind::Return(Some(Expr::Var(
                "state".into(),
            ))))],
        ));
        let mut interp = Interp::new();
        interp.set_global("state", Value::Int(7));
        interp.bind_function(def);
        assert_eq!(interp.call_global("probe", &[]).unwrap(), Value::Int(7));
    }

    /// Run `src` on a fresh interpreter of each engine; hand back a weak
    /// handle to its namespace after dropping it.
    fn namespaces_after_drop(src: &str) -> Vec<std::rc::Weak<RefCell<BTreeMap<String, Value>>>> {
        [Engine::Tree, Engine::Vm]
            .into_iter()
            .map(|engine| {
                let mut interp = Interp::new();
                interp.engine = engine;
                interp.exec_source(src).unwrap();
                Rc::downgrade(&interp.globals)
            })
            .collect()
    }

    #[test]
    fn dropping_interp_frees_namespace_with_top_level_def() {
        for ns in namespaces_after_drop("base = 40\ndef f(x) { return base + x }") {
            assert_eq!(ns.strong_count(), 0);
        }
    }

    #[test]
    fn dropping_interp_frees_context_setup_model() {
        let src = r#"
            def context_setup(n) {
                global model
                model = zeros([n, n])
            }
            def infer(x) { return model[x] }
            context_setup(64)
        "#;
        for engine in [Engine::Tree, Engine::Vm] {
            let mut interp = Interp::new();
            interp.engine = engine;
            interp.exec_source(src).unwrap();
            let model = match interp.get_global("model") {
                Some(Value::Tensor(t)) => Rc::downgrade(&t),
                other => panic!("context_setup publishes a tensor, got {other:?}"),
            };
            let ns = Rc::downgrade(&interp.globals);
            drop(interp);
            assert_eq!(ns.strong_count(), 0, "{engine:?}");
            assert_eq!(model.strong_count(), 0, "{engine:?}");
        }
    }

    #[test]
    fn dropping_interp_frees_functions_held_in_containers() {
        let src = r#"
            def f(x) { return x }
            handlers = [f, fn (x) { return x + 1 }]
            table = {"g": fn (x) { return x * 2 }, "nested": [f]}
        "#;
        for ns in namespaces_after_drop(src) {
            assert_eq!(ns.strong_count(), 0);
        }
    }

    #[test]
    fn source_module_namespace_lives_with_module_value() {
        let mut reg = ModuleRegistry::new();
        reg.register_source("helpers", "k = 3\ndef triple(x) { return x * k }");
        let mut interp = Interp::with_registry(reg);
        interp.exec_source("import helpers").unwrap();
        let module = interp.get_global("helpers").unwrap();
        let Value::Module(m) = &module else {
            panic!("import binds a module");
        };
        let ns = Rc::downgrade(&m.members);
        drop(interp);
        assert!(ns.strong_count() > 0, "the module value still owns it");
        let triple = m.members.borrow()["triple"].clone();
        assert_eq!(
            Interp::new()
                .call_value(&triple, &[Value::Int(14)])
                .unwrap(),
            Value::Int(42)
        );
        drop(triple);
        drop(module);
        assert_eq!(ns.strong_count(), 0);
    }

    #[test]
    fn namespace_held_from_outside_survives_its_interp() {
        for engine in [Engine::Tree, Engine::Vm] {
            let mut interp = Interp::new();
            interp.engine = engine;
            interp
                .exec_source("base = 40\ndef f(x) { return base + x }\nfs = [f]")
                .unwrap();
            let f = interp.get_global("f").unwrap();
            let fs = interp.get_global("fs").unwrap();
            let ns = Rc::downgrade(&interp.globals);
            drop(interp);
            assert!(ns.strong_count() > 0, "{engine:?}");
            let mut other = Interp::new();
            assert_eq!(
                other.call_value(&f, &[Value::Int(2)]).unwrap(),
                Value::Int(42)
            );
            drop(f);
            // reachable through a list held outside: still not cleared
            let Value::List(items) = &fs else { panic!() };
            let g = items.borrow()[0].clone();
            assert_eq!(
                other.call_value(&g, &[Value::Int(1)]).unwrap(),
                Value::Int(41)
            );
        }
    }

    #[test]
    fn wrong_arity_is_error() {
        let mut interp = Interp::new();
        interp.exec_source("def f(a, b) { return a }").unwrap();
        let e = interp.call_global("f", &[Value::Int(1)]).unwrap_err();
        assert!(e.to_string().contains("takes 2 arguments"));
    }
}
