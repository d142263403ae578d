//! User-defined functions.
//!
//! The paper's queries freely call into user code ("the developer \[can\] use
//! the full .NET type system and class library", §1). Steno inlines the
//! *expression-tree* part of each lambda and leaves opaque user functions as
//! direct calls. A [`UdfRegistry`] holds those opaque functions together
//! with their declared signatures so both the baseline interpreter and the
//! Steno VM can invoke them.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::ty::Ty;
use crate::value::Value;

/// The native implementation of a user-defined function.
pub type UdfFn = Arc<dyn Fn(&[Value]) -> Value + Send + Sync>;

/// A registered user-defined function: implementation plus signature.
#[derive(Clone)]
pub struct Udf {
    /// Parameter types.
    pub params: Vec<Ty>,
    /// Return type.
    pub ret: Ty,
    /// The native implementation.
    pub imp: UdfFn,
    /// Whether the caller vouched that the function is *pure*:
    /// deterministic, total (never panics), and effect-free, so that
    /// changing how often or in what order it is called is
    /// unobservable. Defaults to `false` — an opaque native function
    /// must be assumed effectful, which blocks algebraic rewrites from
    /// reordering around it.
    pub pure: bool,
}

impl fmt::Debug for Udf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Udf")
            .field("params", &self.params)
            .field("ret", &self.ret)
            .field("pure", &self.pure)
            .finish_non_exhaustive()
    }
}

/// A registry of user-defined functions, keyed by name.
///
/// Clones share the map (registering into a shared registry copies it
/// first), so cloning a registry per request is one refcount bump.
#[derive(Clone, Debug, Default)]
pub struct UdfRegistry {
    funcs: Arc<HashMap<String, Udf>>,
}

impl UdfRegistry {
    /// Creates an empty registry.
    pub fn new() -> UdfRegistry {
        UdfRegistry::default()
    }

    /// Registers `name` with the given signature and implementation.
    ///
    /// Re-registering a name replaces the previous definition.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        params: Vec<Ty>,
        ret: Ty,
        imp: impl Fn(&[Value]) -> Value + Send + Sync + 'static,
    ) {
        self.insert(name.into(), params, ret, Arc::new(imp), false);
    }

    /// Registers `name` as a **pure** function: deterministic, total,
    /// and effect-free. Purity is a caller-supplied contract the
    /// optimizer relies on to reorder or duplicate calls (e.g. pushing
    /// a filter past a map whose body calls the function); registering
    /// an effectful function as pure yields plans whose call counts and
    /// call order differ from the naïve evaluation.
    pub fn register_pure(
        &mut self,
        name: impl Into<String>,
        params: Vec<Ty>,
        ret: Ty,
        imp: impl Fn(&[Value]) -> Value + Send + Sync + 'static,
    ) {
        self.insert(name.into(), params, ret, Arc::new(imp), true);
    }

    fn insert(&mut self, name: String, params: Vec<Ty>, ret: Ty, imp: UdfFn, pure: bool) {
        let udf = Udf {
            params,
            ret,
            imp,
            pure,
        };
        Arc::make_mut(&mut self.funcs).insert(name, udf);
    }

    /// Looks up a function by name.
    pub fn get(&self, name: &str) -> Option<&Udf> {
        self.funcs.get(name)
    }

    /// `true` when `name` is registered and declared pure.
    pub fn is_pure(&self, name: &str) -> bool {
        self.funcs.get(name).is_some_and(|u| u.pure)
    }

    /// The number of registered functions.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// `true` when no functions are registered.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// Iterates over `(name, udf)` entries in sorted name order.
    ///
    /// The order is deterministic on purpose: iteration feeds
    /// diagnostics, EXPLAIN output, and plan hashing, and the backing
    /// `HashMap`'s arbitrary order would make those flap from run to
    /// run.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Udf)> {
        let mut entries: Vec<(&str, &Udf)> =
            self.funcs.iter().map(|(k, v)| (k.as_str(), v)).collect();
        entries.sort_by_key(|(name, _)| *name);
        entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_call() {
        let mut reg = UdfRegistry::new();
        reg.register("hypot", vec![Ty::F64, Ty::F64], Ty::F64, |args| {
            let a = args[0].as_f64().unwrap();
            let b = args[1].as_f64().unwrap();
            Value::F64(a.hypot(b))
        });
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
        let f = reg.get("hypot").unwrap();
        assert_eq!(f.params, vec![Ty::F64, Ty::F64]);
        let out = (f.imp)(&[Value::F64(3.0), Value::F64(4.0)]);
        assert_eq!(out, Value::F64(5.0));
        assert!(reg.get("missing").is_none());
    }

    #[test]
    fn purity_defaults_off_and_is_recorded() {
        let mut reg = UdfRegistry::new();
        reg.register("opaque", vec![Ty::F64], Ty::F64, |args| args[0].clone());
        reg.register_pure("plus1", vec![Ty::I64], Ty::I64, |args| {
            Value::I64(args[0].as_i64().unwrap() + 1)
        });
        assert!(!reg.is_pure("opaque"));
        assert!(reg.is_pure("plus1"));
        assert!(!reg.is_pure("missing"));
        assert_eq!((reg.get("plus1").unwrap().imp)(&[Value::I64(4)]), Value::I64(5));
    }

    #[test]
    fn clones_share_until_one_registers() {
        let mut base = UdfRegistry::new();
        base.register("k", vec![], Ty::I64, |_| Value::I64(1));
        let mut grown = base.clone();
        assert!(Arc::ptr_eq(&base.funcs, &grown.funcs));
        grown.register_pure("j", vec![], Ty::I64, |_| Value::I64(2));
        assert!(!Arc::ptr_eq(&base.funcs, &grown.funcs));
        assert_eq!((base.len(), grown.len()), (1, 2));
        assert!(base.get("j").is_none() && grown.is_pure("j"));
    }

    #[test]
    fn reregistration_replaces() {
        let mut reg = UdfRegistry::new();
        reg.register("k", vec![], Ty::I64, |_| Value::I64(1));
        reg.register("k", vec![], Ty::I64, |_| Value::I64(2));
        assert_eq!(reg.len(), 1);
        assert_eq!((reg.get("k").unwrap().imp)(&[]), Value::I64(2));
    }

    #[test]
    fn iter_is_sorted_regardless_of_registration_order() {
        // Registration orders chosen to disagree with name order; a
        // HashMap-order iterator would flap between runs (and between
        // the two registries), a sorted one cannot.
        let names = ["zeta", "alpha", "mid", "beta", "omega"];
        let mut fwd = UdfRegistry::new();
        for n in names {
            fwd.register(n, vec![Ty::F64], Ty::F64, |args| args[0].clone());
        }
        let mut rev = UdfRegistry::new();
        for n in names.iter().rev() {
            rev.register(*n, vec![Ty::F64], Ty::F64, |args| args[0].clone());
        }
        let fwd_names: Vec<&str> = fwd.iter().map(|(n, _)| n).collect();
        let rev_names: Vec<&str> = rev.iter().map(|(n, _)| n).collect();
        assert_eq!(fwd_names, vec!["alpha", "beta", "mid", "omega", "zeta"]);
        assert_eq!(fwd_names, rev_names);
    }
}
