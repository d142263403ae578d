//! The correctness gate: every answer is compared bit for bit with its
//! reference, and every failure is classified for the error breakdown.

use std::collections::BTreeMap;

use steno_expr::Value;

/// Bit-for-bit equality: floats compare by representation, so `-0.0`
/// differs from `0.0` and a NaN equals the same NaN.
pub fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::I64(x), Value::I64(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Row(x), Value::Row(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y.iter())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (Value::Pair(x), Value::Pair(y)) => same(&x.0, &y.0) && same(&x.1, &y.1),
        (Value::Seq(x), Value::Seq(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(p, q)| same(p, q))
        }
        _ => false,
    }
}

/// Outcome counts of one run. `attempted = ok + wrong + failed`.
#[derive(Default)]
pub struct Tally {
    pub ok: u64,
    /// Answers that differ from the reference.
    pub wrong: u64,
    /// `Err` results and deadline expiries, by message.
    pub errors: BTreeMap<String, u64>,
}

impl Tally {
    pub fn record<E: std::fmt::Display>(&mut self, got: &Result<Value, E>, want: &Value) -> bool {
        match got {
            Ok(v) if same(v, want) => {
                self.ok += 1;
                true
            }
            Ok(_) => {
                self.wrong += 1;
                false
            }
            Err(e) => {
                *self.errors.entry(e.to_string()).or_default() += 1;
                false
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.wrong += other.wrong;
        for (msg, n) in other.errors {
            *self.errors.entry(msg).or_default() += n;
        }
    }

    pub fn failed(&self) -> u64 {
        self.errors.values().sum()
    }

    pub fn attempted(&self) -> u64 {
        self.ok + self.wrong + self.failed()
    }

    /// One line: the error rate and what it is made of.
    pub fn breakdown(&self) -> String {
        let bad = self.wrong + self.failed();
        let rate = bad as f64 / self.attempted().max(1) as f64;
        let mut line = format!(
            "error_rate {rate:.6} = {bad}/{} (wrong {}, failed {})",
            self.attempted(),
            self.wrong,
            self.failed()
        );
        for (msg, n) in &self.errors {
            line.push_str(&format!("; {n}x {msg}"));
        }
        line
    }
}
