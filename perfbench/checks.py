"""Output checks shared by every workload.

A pass is a fixed sequence of library calls, the operations.  Each operation
gets two checks once the pass has returned:

* an independent check: a known exact value, a brute-force oracle, or an
  exact-p statistical band (never a plug-in band);
* a bit-for-bit comparison of its encoded estimates with the reference
  recorded in ``references.json``.

Audit verdicts (``ok`` in tiling reports, ``diverging``) are dropped before the
comparison, so a later fix to an audit band does not count as a failure,
while any change to a number does.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from fractions import Fraction
import time
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

# keys that hold an audit's verdict rather than an estimate
VERDICT_KEYS = frozenset({"ok", "diverging"})


def encode(x):
    """Plain JSON value for a library result, exact and strict.

    Floats keep every bit (JSON floats round-trip through repr); non-finite
    floats become the strings "nan", "inf" and "-inf"; fractions become
    "p/q"; dataclasses and dicts become objects without verdict keys.
    """
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, enum.Enum):
        return x.value
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        x = {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {str(k): encode(v) for k, v in x.items() if k not in VERDICT_KEYS}
    if isinstance(x, (list, tuple)):
        return [encode(v) for v in x]
    if hasattr(x, "item"):  # numpy scalar
        return encode(x.item())
    raise TypeError(f"cannot encode {type(x).__name__}")


def exact_p_band(freq: float, p: float, samples: int) -> bool:
    """|freq - p| within 4 standard errors taken at the exact p (criterion 4)."""
    return abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / samples) + 1e-12


@dataclasses.dataclass
class Op:
    name: str
    result: object
    error: str | None
    check: object  # callable(result) -> bool, or None
    view: object  # callable(result) -> the estimates to compare, or None for all
    wall_s: float = 0.0
    cpu_s: float = 0.0

    def encoded(self):
        return encode(self.result if self.view is None else self.view(self.result))


class Pass:
    """Runs one pass's operations and keeps what each returned or raised."""

    def __init__(self):
        self.ops: list[Op] = []
        self.counts: dict[str, float] = {}

    def op(self, name, fn, *args, check=None, view=None, **kwargs):
        c0, t0 = time.process_time(), time.perf_counter()
        result, error = None, None
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a raising operation is a failed one; go on
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.ops.append(Op(name, result, error, check, view, wall, cpu))
        return result


def failures(ops: list[Op], references: dict | None) -> list[str]:
    """One line per failed operation; references=None skips the bit check."""
    out = []
    seen = set()
    for op in ops:
        if op.name in seen:
            out.append(f"{op.name}: duplicate operation name")
            continue
        seen.add(op.name)
        if op.error is not None:
            out.append(f"{op.name}: raised {op.error}")
            continue
        if op.check is not None:
            try:
                ok = bool(op.check(op.result))
            except Exception as exc:  # a check that cannot evaluate fails
                ok = False
                out.append(f"{op.name}: check raised {type(exc).__name__}: {exc}")
                continue
            if not ok:
                out.append(f"{op.name}: independent check failed")
                continue
        if references is not None:
            want = references.get(op.name)
            got = json.loads(json.dumps(op.encoded(), allow_nan=False))
            if want is None:
                out.append(f"{op.name}: no recorded reference")
            elif got != want:
                out.append(f"{op.name}: differs from the recorded reference")
    return out


def load_references(workload: str, variant: int) -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)[workload][str(variant)]
