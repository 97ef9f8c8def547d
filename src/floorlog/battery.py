"""A fixed battery of instances shared by tests, benchmarks, and the CLI.

Twenty (alpha, beta, base) triples: thirteen with rational slope across
bases 2, 3, and 10, seven with quadratic-surd slopes, two of them with a
surd offset as well.  The mix is chosen so every code path that branches
on rationality, base size, or offset shape gets exercised by the same
list everywhere.
"""

from dataclasses import dataclass

from .exact import ExactReal
from .sequences import FloorLogInstance, NormalizedInstance, normalize


@dataclass(frozen=True)
class BatteryInstance:
    name: str
    alpha_text: str
    beta_text: str
    base: int

    def alpha(self) -> ExactReal:
        return ExactReal.parse(self.alpha_text)

    def beta(self) -> ExactReal:
        return ExactReal.parse(self.beta_text)

    @property
    def alpha_is_rational(self) -> bool:
        return self.alpha().is_rational

    def instance(self) -> FloorLogInstance:
        return FloorLogInstance(self.alpha(), self.beta(), self.base)

    def normalized(self) -> NormalizedInstance:
        return normalize(self.instance())

    def label(self) -> str:
        return f"alpha={self.alpha_text} beta={self.beta_text} base={self.base}"


_ROWS = (
    ("i01", "1", "0", 2),
    ("i02", "1", "1/3", 2),
    ("i03", "3/2", "0", 2),
    ("i04", "3/2", "1/3", 2),
    ("i05", "3/2", "0", 3),
    ("i06", "5/3", "0", 2),
    ("i07", "5/3", "1/3", 3),
    ("i08", "5/3", "0", 10),
    ("i09", "7/4", "1/3", 2),
    ("i10", "7/4", "0", 10),
    ("i11", "22/7", "0", 2),
    ("i12", "22/7", "1/3", 10),
    ("i13", "22/7", "1/3*sqrt(2)", 2),
    ("i14", "sqrt(2)", "0", 2),
    ("i15", "sqrt(2)", "1/3", 2),
    ("i16", "sqrt(2)", "1/2*sqrt(2)", 2),
    ("i17", "sqrt(3)", "0", 2),
    ("i18", "sqrt(3)", "1/3", 3),
    ("i19", "1+sqrt(2)", "0", 2),
    ("i20", "1/2+1/2*sqrt(5)", "0", 2),
)

BATTERY: tuple[BatteryInstance, ...] = tuple(
    BatteryInstance(*row) for row in _ROWS
)

_BY_NAME = {inst.name: inst for inst in BATTERY}


def by_name(name: str) -> BatteryInstance:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown battery instance {name!r}; known: {known}")
