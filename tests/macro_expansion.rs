//! End-to-end tests of the compile-time Steno path: the `steno!` macro
//! (§9 of the paper) expanding queries into fused imperative loops that
//! `rustc` compiles alongside this test.

use steno::steno;

#[test]
fn sum_of_squares_matches_hand_loop() {
    let xs: Vec<f64> = (0..1000).map(|i| i as f64 * 0.25).collect();
    let optimized: f64 = steno!((from x: f64 in xs select x * x).sum());
    // Indexed loop on purpose: the same shape the macro expands to.
    #[allow(clippy::needless_range_loop)]
    let hand = {
        let mut hand = 0.0;
        for i in 0..xs.len() {
            let x = xs[i];
            hand += x * x;
        }
        hand
    };
    // The generated loop performs the same operations in the same order.
    assert_eq!(optimized.to_bits(), hand.to_bits());
}

#[test]
fn even_squares_filtering() {
    let ns: Vec<i64> = (0..20).collect();
    let out: Vec<i64> = steno!(from x: i64 in ns where x % 2 == 0 select x * x);
    assert_eq!(out, vec![0, 4, 16, 36, 64, 100, 144, 196, 256, 324]);
}

#[test]
fn nested_cartesian_product_fuses_to_nested_loops() {
    // The §5 example: Sum over a product of sequences.
    let xs: Vec<f64> = vec![1.0, 2.0, 3.0];
    let ys: Vec<f64> = vec![10.0, 20.0];
    let total: f64 = steno!((from x: f64 in xs from y: f64 in ys select x * y).sum());
    assert_eq!(total, (1.0 + 2.0 + 3.0) * 30.0);
}

#[test]
fn aggregates_and_positional_operators() {
    let xs: Vec<f64> = vec![5.0, -3.0, 8.0, 1.0, -9.0];
    let m: f64 = steno!((from x: f64 in xs select x).min());
    assert_eq!(m, -9.0);
    let c: i64 = steno!(xs.where(|x: f64| x > 0.0).count());
    assert_eq!(c, 3);
    let avg: f64 = steno!((from x: f64 in xs select x).average());
    assert_eq!(avg, 0.4);
    let first_two: Vec<f64> = steno!((from x: f64 in xs select x).take(2));
    assert_eq!(first_two, vec![5.0, -3.0]);
}

#[test]
fn min_and_max_order_nan_and_signed_zero_as_the_engine_does() {
    // `total_cmp` order, as every VM tier and the interpreter: -0.0
    // orders before 0.0, and a positive NaN after every number.
    let zs: Vec<f64> = vec![0.0, -0.0, 3.0];
    let lo: f64 = steno!((from x: f64 in zs select x).min());
    assert_eq!(lo.to_bits(), (-0.0f64).to_bits());
    let zs: Vec<f64> = vec![-0.0, 0.0, -3.0];
    let hi: f64 = steno!((from x: f64 in zs select x).max());
    assert_eq!(hi.to_bits(), 0.0f64.to_bits());
    let ns: Vec<f64> = vec![1.0, f64::NAN, 2.0];
    let hi: f64 = steno!((from x: f64 in ns select x).max());
    assert!(hi.is_nan());
    let clamped: Vec<f64> = steno!(from x: f64 in ns select x.min(1.5));
    assert_eq!(clamped[0], 1.0);
    assert_eq!(clamped[1], 1.5);
}

#[test]
fn group_by_aggregate_uses_specialized_sink() {
    // The histogram shape of the Group microbenchmark (§7.1): counts per
    // integer bin, via the GroupBy sink.
    let xs: Vec<f64> = vec![0.5, 1.5, 0.7, 2.2, 1.1, 0.1];
    let bins: Vec<(f64, i64)> =
        steno!(xs.group_by(|x: f64| x.floor()).select(|kv| (kv.0, kv.1.count())));
    assert_eq!(bins, vec![(0.0, 3), (1.0, 2), (2.0, 1)]);
}

#[test]
fn range_source_needs_no_annotation() {
    let s: i64 = steno!(range(1, 100).sum());
    assert_eq!(s, 5050);
}

#[test]
fn take_while_and_skip() {
    let xs: Vec<i64> = (0..10).collect();
    let v: Vec<i64> = steno!(xs.skip(3).take_while(|x: i64| x < 8));
    assert_eq!(v, vec![3, 4, 5, 6, 7]);
}
