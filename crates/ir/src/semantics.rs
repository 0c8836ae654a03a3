//! Operation semantics shared by the emulator and the optimizer.
//!
//! Keeping the arithmetic definitions in one place guarantees that
//! constant folding can never disagree with execution:
//!
//! * integer operations wrap;
//! * division and remainder by zero yield zero (the machine is total);
//! * shift amounts are taken modulo 64;
//! * floating-point operations act on the IEEE-754 interpretation of
//!   the 64-bit word; float→int conversion saturates (NaN → 0).

use crate::instr::{BinKind, CmpPred, UnKind};
use crate::reg::Value;

/// Evaluates a two-operand operation.
#[inline]
pub fn eval_binary(kind: BinKind, a: Value, b: Value) -> Value {
    let (x, y) = (a.as_int(), b.as_int());
    match kind {
        BinKind::Add => Value::from_int(x.wrapping_add(y)),
        BinKind::Sub => Value::from_int(x.wrapping_sub(y)),
        BinKind::Mul => Value::from_int(x.wrapping_mul(y)),
        BinKind::Div => Value::from_int(if y == 0 { 0 } else { x.wrapping_div(y) }),
        BinKind::Rem => Value::from_int(if y == 0 { 0 } else { x.wrapping_rem(y) }),
        BinKind::And => Value::from_int(x & y),
        BinKind::Or => Value::from_int(x | y),
        BinKind::Xor => Value::from_int(x ^ y),
        BinKind::Shl => Value::from_int(x.wrapping_shl(y as u32 & 63)),
        BinKind::Shr => Value::from_int(((x as u64).wrapping_shr(y as u32 & 63)) as i64),
        BinKind::Sar => Value::from_int(x.wrapping_shr(y as u32 & 63)),
        BinKind::Min => Value::from_int(x.min(y)),
        BinKind::Max => Value::from_int(x.max(y)),
        BinKind::FAdd => Value::from_f64(a.as_f64() + b.as_f64()),
        BinKind::FSub => Value::from_f64(a.as_f64() - b.as_f64()),
        BinKind::FMul => Value::from_f64(a.as_f64() * b.as_f64()),
        BinKind::FDiv => Value::from_f64(a.as_f64() / b.as_f64()),
    }
}

/// Evaluates a one-operand operation.
#[inline]
pub fn eval_unary(kind: UnKind, a: Value) -> Value {
    match kind {
        UnKind::Mov => a,
        UnKind::Neg => Value::from_int(a.as_int().wrapping_neg()),
        UnKind::Not => Value::from_int(!a.as_int()),
        UnKind::IntToFloat => Value::from_f64(a.as_int() as f64),
        UnKind::FloatToInt => Value::from_int(a.as_f64() as i64),
    }
}

/// Evaluates a comparison to 0 or 1.
#[inline]
pub fn eval_cmp(pred: CmpPred, a: Value, b: Value) -> Value {
    Value::from_int(pred.eval(a.as_int(), b.as_int()) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapping_and_totality() {
        assert_eq!(
            eval_binary(BinKind::Add, Value::from_int(i64::MAX), Value::from_int(1)).as_int(),
            i64::MIN
        );
        assert_eq!(
            eval_binary(BinKind::Div, Value::from_int(5), Value::ZERO).as_int(),
            0
        );
        assert_eq!(
            eval_binary(BinKind::Rem, Value::from_int(5), Value::ZERO).as_int(),
            0
        );
        assert_eq!(
            eval_binary(BinKind::Shr, Value::from_int(-1), Value::from_int(1)).as_int(),
            i64::MAX
        );
        assert_eq!(
            eval_binary(BinKind::Shl, Value::from_int(1), Value::from_int(64)).as_int(),
            1,
            "shift amounts are mod 64"
        );
    }

    #[test]
    fn min_max_and_logic() {
        let a = Value::from_int(-3);
        let b = Value::from_int(9);
        assert_eq!(eval_binary(BinKind::Min, a, b).as_int(), -3);
        assert_eq!(eval_binary(BinKind::Max, a, b).as_int(), 9);
        assert_eq!(eval_binary(BinKind::Xor, b, b).as_int(), 0);
    }

    #[test]
    fn float_semantics() {
        let two = Value::from_f64(2.0);
        let eight = Value::from_f64(8.0);
        assert_eq!(eval_binary(BinKind::FMul, two, eight).as_f64(), 16.0);
        assert_eq!(eval_binary(BinKind::FDiv, eight, two).as_f64(), 4.0);
        let nan = eval_binary(BinKind::FDiv, Value::from_f64(0.0), Value::from_f64(0.0));
        assert_eq!(eval_unary(UnKind::FloatToInt, nan).as_int(), 0);
        assert_eq!(
            eval_unary(UnKind::IntToFloat, Value::from_int(3)).as_f64(),
            3.0
        );
    }

    #[test]
    fn unary_and_cmp() {
        assert_eq!(
            eval_unary(UnKind::Neg, Value::from_int(i64::MIN)).as_int(),
            i64::MIN
        );
        assert_eq!(eval_unary(UnKind::Not, Value::ZERO).as_int(), -1);
        assert_eq!(
            eval_cmp(CmpPred::Le, Value::from_int(2), Value::from_int(2)).as_int(),
            1
        );
        assert_eq!(
            eval_cmp(CmpPred::Gt, Value::from_int(2), Value::from_int(2)).as_int(),
            0
        );
    }
}
