"""Fold plans written out as straight-line source, for a Field's compile.

The first field whose rent runs out imports this module, so a process
whose fields all stay interpreted never compiles it.
"""

from functools import lru_cache

from .field import _fold_plan, _reduction


def lines(p, bits, count, bound, y):
    """The steps of _reduction(p, bits, count, bound) as source lines on
    the name y."""
    if p == 2:
        return [f"{y} &= {((1 << bits * count) - 1) // ((1 << bits) - 1):#x}"]
    shrinks, mu, s, low, bias, top, ones = _reduction(p, bits, count,
                                                      bound).steps
    return [f"{y} -= ({y} >> {h} & {mask:#x}) * {c}"
            for h, mask, c in shrinks] + [
        f"{y} -= ({y} * {mu} >> {s} & {low:#x}) * {p}",
        f"{y} -= ({y} + {bias:#x} >> {top} & {ones:#x}) * {p}"]


@lru_cache(maxsize=256)
def compiled(p, m, bits, block, w):
    """The fold plan of that shape written out as source, every fold,
    shrink and reduction inline, exec'd into one loop-free function;
    bind(n) makes it for a ring's packed -f n."""
    bounds, folds, *_ = _fold_plan(p, m, bits, block, w)
    h, ones = bits // 2, ((1 << bits * m) - 1) // ((1 << bits) - 1)
    shrink = [f"y -= (y >> {h} & {((1 << h) - 1) * ones:#x})"
              f" * {(1 << h) - (1 << h) % p}"]
    body, scope = [], {}
    for (lo_bits, step, mask, shift, _), bound in zip(folds, bounds):
        body += [f"y = a >> {lo_bits}", *(  # m digits cover any block
            lines(p, bits, m, bound, "y") if step == 4 else
            [f"y %= {p}"] * (step == 1) + shrink * (step - 1)),
            f"a = (a & {mask:#x}) + (y * n << {shift})"]
    body += lines(p, bits, m, bounds[-1], "a") + ["return a"]
    exec("def bind(n):\n def reduce_packed(a):\n  " + "\n  ".join(body)
         + "\n return reduce_packed", scope)
    return scope["bind"]
