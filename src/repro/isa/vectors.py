"""SIMD vector register values.

A vector register holds ``width`` 32-bit data elements (the paper's SIMD
model, Section 2).  We model the value as an immutable tuple of Python
numbers; the simulator does not bit-pack because the timing model only
needs element identity, not encodings.

Helper functions implement the masked element-wise operations the
benchmark kernels need (``vinc``, ``vmod``, ``vcompareequal``, ...).
Masked-off lanes always pass through unchanged, matching masked SIMD
semantics (Section 2.1).
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple, Union

from repro.errors import IsaError
from repro.isa.masks import Mask

__all__ = [
    "Vector",
    "vbroadcast",
    "viota",
    "vmap",
    "vmap2",
    "vadd",
    "vsub",
    "vmul",
    "vinc",
    "vmod",
    "vmin",
    "vmax",
    "vcompare_equal",
    "vblend",
]

Number = Union[int, float]
Vector = Tuple[Number, ...]


def vbroadcast(value: Number, width: int) -> Vector:
    """A vector with every lane equal to ``value``."""
    if width <= 0:
        raise IsaError(f"vector width must be positive, got {width}")
    return (value,) * width


def viota(width: int, start: Number = 0, step: Number = 1) -> Vector:
    """A vector of lane indices: ``start, start+step, ...``."""
    if width <= 0:
        raise IsaError(f"vector width must be positive, got {width}")
    return tuple(start + i * step for i in range(width))


def _check_widths(*vectors: Sequence[Number]) -> int:
    widths = {len(v) for v in vectors}
    if len(widths) != 1:
        raise IsaError(f"vector width mismatch: {sorted(widths)}")
    (width,) = widths
    if width == 0:
        raise IsaError("zero-width vector")
    return width


def vmap(
    fn: Callable[[Number], Number],
    vec: Sequence[Number],
    mask: Mask = None,
) -> Vector:
    """Apply ``fn`` lane-wise under ``mask`` (inactive lanes unchanged)."""
    width = _check_widths(vec)
    if mask is None:
        return tuple(fn(x) for x in vec)
    if mask.width != width:
        raise IsaError(f"mask width {mask.width} != vector width {width}")
    return tuple(
        fn(x) if mask.lane(i) else x for i, x in enumerate(vec)
    )


def vmap2(
    fn: Callable[[Number, Number], Number],
    a: Sequence[Number],
    b: Sequence[Number],
    mask: Mask = None,
) -> Vector:
    """Apply binary ``fn`` lane-wise under ``mask`` (inactive lanes keep ``a``)."""
    width = _check_widths(a, b)
    if mask is None:
        return tuple(fn(x, y) for x, y in zip(a, b))
    if mask.width != width:
        raise IsaError(f"mask width {mask.width} != vector width {width}")
    return tuple(
        fn(x, y) if mask.lane(i) else x
        for i, (x, y) in enumerate(zip(a, b))
    )


def vadd(a: Sequence[Number], b: Sequence[Number], mask: Mask = None) -> Vector:
    """Lane-wise addition under mask."""
    return vmap2(lambda x, y: x + y, a, b, mask)


def vsub(a: Sequence[Number], b: Sequence[Number], mask: Mask = None) -> Vector:
    """Lane-wise subtraction under mask."""
    return vmap2(lambda x, y: x - y, a, b, mask)


def vmul(a: Sequence[Number], b: Sequence[Number], mask: Mask = None) -> Vector:
    """Lane-wise multiplication under mask."""
    return vmap2(lambda x, y: x * y, a, b, mask)


def vinc(vec: Sequence[Number], mask: Mask = None) -> Vector:
    """The paper's ``vinc``: lane-wise increment under mask."""
    return vmap(lambda x: x + 1, vec, mask)


def vmod(vec: Sequence[Number], divisor: int, mask: Mask = None) -> Vector:
    """The paper's ``vmod``: lane-wise integer modulo under mask."""
    if divisor == 0:
        raise IsaError("vmod divisor must be non-zero")
    return vmap(lambda x: int(x) % divisor, vec, mask)


def vmin(a: Sequence[Number], b: Sequence[Number], mask: Mask = None) -> Vector:
    """Lane-wise minimum under mask."""
    return vmap2(min, a, b, mask)


def vmax(a: Sequence[Number], b: Sequence[Number], mask: Mask = None) -> Vector:
    """Lane-wise maximum under mask."""
    return vmap2(max, a, b, mask)


def vcompare_equal(
    a: Sequence[Number], b: Sequence[Number], mask: Mask = None
) -> Mask:
    """The paper's ``vcompareequal``: lane-wise equality to a mask.

    Lanes outside ``mask`` compare as False, matching the use in the
    VLOCK macro (Figure 3B) where only linked lanes are considered.
    """
    width = _check_widths(a, b)
    if mask is None:
        mask = Mask.all_ones(width)
    if mask.width != width:
        raise IsaError(f"mask width {mask.width} != vector width {width}")
    return Mask.from_lanes(
        mask.lane(i) and x == y for i, (x, y) in enumerate(zip(a, b))
    )


def vblend(
    a: Sequence[Number], b: Sequence[Number], mask: Mask
) -> Vector:
    """Select ``b`` where mask is set, else ``a``."""
    width = _check_widths(a, b)
    if mask.width != width:
        raise IsaError(f"mask width {mask.width} != vector width {width}")
    return tuple(
        y if mask.lane(i) else x for i, (x, y) in enumerate(zip(a, b))
    )
