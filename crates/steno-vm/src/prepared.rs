//! Binding a program to concrete data: prepared sources and UDFs.
//!
//! This is the VM counterpart of §3.3's "resolve any object references
//! that were captured in the query": source names and UDF names recorded
//! at compile time are resolved against the runtime context before
//! execution.

use std::sync::Arc;

use steno_expr::{Column, DataContext, UdfRegistry, Value};

use crate::exec::VmError;
use crate::instr::Program;

/// A source resolved to type-specialized storage.
#[derive(Clone, Debug)]
pub enum PreparedSource {
    /// An f64 column.
    F64(Arc<Vec<f64>>),
    /// An i64 column.
    I64(Arc<Vec<i64>>),
    /// A bool column.
    Bool(Arc<Vec<bool>>),
    /// Boxed values (rows are pre-wrapped once so the loop does not
    /// allocate per access).
    Values(Arc<Vec<Value>>),
}

impl PreparedSource {
    /// The number of elements.
    pub fn len(&self) -> usize {
        match self {
            PreparedSource::F64(v) => v.len(),
            PreparedSource::I64(v) => v.len(),
            PreparedSource::Bool(v) => v.len(),
            PreparedSource::Values(v) => v.len(),
        }
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<&Column> for PreparedSource {
    fn from(col: &Column) -> PreparedSource {
        match col {
            Column::F64(v) => PreparedSource::F64(Arc::clone(v)),
            Column::I64(v) => PreparedSource::I64(Arc::clone(v)),
            Column::Bool(v) => PreparedSource::Bool(Arc::clone(v)),
            Column::Rows { .. } | Column::Values(_) => {
                PreparedSource::Values(Arc::new(col.to_values()))
            }
        }
    }
}

/// The runtime bindings of a program: sources and UDF implementations in
/// program order.
pub struct Bindings {
    /// Sources in [`crate::instr::SrcId`] order.
    pub sources: Vec<PreparedSource>,
    /// UDFs in [`crate::instr::UdfId`] order.
    pub udfs: Vec<steno_expr::udf::UdfFn>,
}

impl Bindings {
    /// Resolves a program's source and UDF names against a context.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::MissingBinding`] for unknown names.
    pub fn resolve(
        program: &Program,
        ctx: &DataContext,
        udfs: &UdfRegistry,
    ) -> Result<Bindings, VmError> {
        let mut sources = Vec::with_capacity(program.source_names.len());
        for name in &program.source_names {
            let col = ctx
                .source(name)
                .ok_or_else(|| VmError::MissingBinding(format!("source `{name}`")))?;
            sources.push(PreparedSource::from(col));
        }
        let mut funcs = Vec::with_capacity(program.udf_names.len());
        for name in &program.udf_names {
            let udf = udfs
                .get(name)
                .ok_or_else(|| VmError::MissingBinding(format!("udf `{name}`")))?;
            funcs.push(Arc::clone(&udf.imp));
        }
        Ok(Bindings {
            sources,
            udfs: funcs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steno_expr::Ty;

    #[test]
    fn rows_prepare_to_boxed_values_once() {
        let col = Column::from_rows(vec![1.0, 2.0, 3.0, 4.0], 2);
        let p = PreparedSource::from(&col);
        match p {
            PreparedSource::Values(v) => {
                assert_eq!(v.len(), 2);
                assert_eq!(v[0], Value::row(vec![1.0, 2.0]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_source_reported() {
        let program = Program {
            instrs: vec![],
            n_fregs: 0,
            n_iregs: 0,
            n_vregs: 0,
            n_sinks: 0,
            n_batch: 0,
            batch_fallbacks: vec![],
            n_guards_dropped: 0,
            loop_plans: vec![],
            fused_kernels: vec![],
            n_slots_reused: 0,
            n_hoisted: 0,
            n_superinstrs: 0,
            source_names: vec!["zzz".into()],
            udf_names: vec![],
            result_ty: Ty::F64,
            shadow: None,
        };
        let err = Bindings::resolve(&program, &DataContext::new(), &UdfRegistry::new());
        assert!(matches!(err, Err(VmError::MissingBinding(_))));
    }
}
