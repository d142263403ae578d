//! Dryad-style job graphs.
//!
//! DryadLINQ "transforms a LINQ query into a directed acyclic graph of
//! query operators, which Dryad executes as a collection of parallel
//! tasks" (§6). [`JobGraph::from_plan`] builds that DAG for a §6 parallel
//! plan; its `Display` draws the Fig. 12 shape.

use std::fmt;

use steno_quil::parallel::{ParallelPlan, Reduce};

/// A vertex in the job graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Vertex {
    /// Stage name (`Map`, `Agg*`, `Merge`, ...).
    pub stage: String,
    /// Which partition this vertex processes, if stage-parallel.
    pub partition: Option<usize>,
}

/// A directed acyclic graph of vertices; edges are channels.
#[derive(Clone, Debug, Default)]
pub struct JobGraph {
    /// The vertices, topologically ordered.
    pub vertices: Vec<Vertex>,
    /// Edges as `(from, to)` vertex indices.
    pub edges: Vec<(usize, usize)>,
}

impl JobGraph {
    /// Builds the job graph of a parallel plan over `partitions` inputs.
    pub fn from_plan(plan: &ParallelPlan, partitions: usize) -> JobGraph {
        let mut g = JobGraph::default();
        let map_stage = if plan.map_chain.agg.is_some() {
            // Fig. 12: the map vertex includes the partial aggregate.
            "Map+Agg_i"
        } else if plan
            .map_chain
            .ops
            .last()
            .is_some_and(|op| matches!(op, steno_quil::ir::QuilOp::Sink(_)))
        {
            "Map+Sink_i"
        } else {
            "Map"
        };
        let maps: Vec<usize> = (0..partitions)
            .map(|p| {
                g.vertices.push(Vertex {
                    stage: map_stage.to_string(),
                    partition: Some(p),
                });
                g.vertices.len() - 1
            })
            .collect();
        let reduce_stage = match &plan.reduce {
            Reduce::Concat => "Concat",
            Reduce::CombinePartials(_) => "Agg*",
            Reduce::MergeGroupedPartials { .. } => "GroupMerge",
            Reduce::MergeSorted { .. } => "SortedMerge",
            Reduce::SerialRest { .. } => "SerialRest",
        };
        g.vertices.push(Vertex {
            stage: reduce_stage.to_string(),
            partition: None,
        });
        let reduce_idx = g.vertices.len() - 1;
        for m in maps {
            g.edges.push((m, reduce_idx));
        }
        g
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// `true` for a graph with no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }
}

impl fmt::Display for JobGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Draw stage-parallel vertices on one line, then the reducer.
        let maps: Vec<&Vertex> = self
            .vertices
            .iter()
            .filter(|v| v.partition.is_some())
            .collect();
        let reducers: Vec<&Vertex> = self
            .vertices
            .iter()
            .filter(|v| v.partition.is_none())
            .collect();
        for v in &maps {
            // A vertex without a partition index renders as a bare
            // stage: `[Map]` rather than panicking on the missing index.
            match v.partition {
                Some(p) => write!(f, "[{}_{p}] ", v.stage)?,
                None => write!(f, "[{}] ", v.stage)?,
            }
        }
        writeln!(f)?;
        for _ in &maps {
            write!(f, "   \\   ")?;
        }
        writeln!(f)?;
        for v in reducers {
            write!(f, "      [{}]", v.stage)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use steno_expr::{Expr, Ty, UdfRegistry};
    use steno_query::typing::SourceTypes;
    use steno_query::Query;
    use steno_quil::{lower, parallel};

    #[test]
    fn figure_12_shape() {
        // Src-Trans-Agg over 3 partitions: three Map+Agg_i vertices
        // feeding one Agg*.
        let srcs = SourceTypes::new().with("xs", Ty::F64);
        let q = Query::source("xs")
            .select(Expr::var("x") * Expr::var("x"), "x")
            .sum()
            .build();
        let chain = lower(&q, &srcs, &UdfRegistry::new()).unwrap();
        let plan = parallel::plan(&chain);
        let g = JobGraph::from_plan(&plan, 3);
        assert_eq!(g.len(), 4);
        assert_eq!(g.edges.len(), 3);
        assert!(g.vertices[0].stage.contains("Agg_i"));
        assert_eq!(g.vertices[3].stage, "Agg*");
        let drawn = g.to_string();
        assert!(drawn.contains("[Map+Agg_i_0]"));
        assert!(drawn.contains("[Agg*]"));
    }

    #[test]
    fn partitionless_vertices_render_without_an_index() {
        // A hand-built graph whose "map side" vertex has no partition
        // index must display as a bare stage, not panic.
        let g = JobGraph {
            vertices: vec![
                Vertex {
                    stage: "Map".into(),
                    partition: None,
                },
                Vertex {
                    stage: "Concat".into(),
                    partition: None,
                },
            ],
            edges: vec![(0, 1)],
        };
        let drawn = g.to_string();
        assert!(
            drawn.contains("[Map]") || drawn.contains("[Concat]"),
            "{drawn}"
        );
    }

    #[test]
    fn concat_plans_have_concat_reducers() {
        let srcs = SourceTypes::new().with("xs", Ty::F64);
        let q = Query::source("xs")
            .where_(Expr::var("x").gt(Expr::litf(0.0)), "x")
            .build();
        let chain = lower(&q, &srcs, &UdfRegistry::new()).unwrap();
        let g = JobGraph::from_plan(&parallel::plan(&chain), 2);
        assert_eq!(g.vertices.last().unwrap().stage, "Concat");
        assert_eq!(g.vertices[0].stage, "Map");
    }
}
