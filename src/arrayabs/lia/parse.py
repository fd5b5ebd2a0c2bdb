"""Formula input: the one condition grammar, read as a formula.

`parse_formula(text)` is `bridge.cond_to_formula(lang.parse_condition(text))`,
so every formula that `to_str` prints without divisibility atoms
parses back to an equal formula. That grammar does not read:

- divisibility `m | t`, the one thing the printer writes that has no
  source syntax; build it with `dvd`;
- array reads such as `t[0] >= 1` or `old(t[0]) >= 1` (BridgeError);
- chained constant factors such as `2*3*x`;
- the language keywords (`int`, `old`, `var`, ...) as variable names.

`BLUE`, `WHITE` and `RED` read as 0, 1 and 2. Formula text may name
the variables the analyses generate, such as `a'` or `t@final0`, though
no program may declare a name with `@` or `'` (`lang.checks`). Errors
are `lang.ParseError` or BridgeError, both ValueErrors.
"""

from __future__ import annotations

from .formula import Formula


def parse_formula(text: str) -> Formula:
    # imported here: bridge imports this package
    from ..bridge import cond_to_formula
    from ..lang.parser import parse_condition

    return cond_to_formula(parse_condition(text))
