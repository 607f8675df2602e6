"""Per-provider pricing: the exchange rates of the economics plane.

The paper's credit system (§3.3) fixes one exchange rate — 15 credits
per CPU·hour of Cloud worker usage — and the reproduction hard-coded it
wherever credits met CPU time.  Real federated deployments buy their
supplements from clouds with different prices (Thai et al., "Executing
Bag of Distributed Tasks on Virtually Unlimited Cloud Resources", model
exactly this cost/makespan trade-off), so the rate becomes data: a
:class:`PriceBook` maps provider names to one constant credit rate
each.

The default book is uniform at :data:`CREDITS_PER_CPU_HOUR` for every
provider, so every pre-economics code path keeps its exact arithmetic:
a uniform book multiplies by the same float the inline constant used
to.

Declarative form: scenario configs carry pricing as hashable
``(provider, rate)`` pairs (:meth:`PriceBook.from_pairs`); the CLI
accepts the same pairs as ``provider=rate`` text (:func:`parse_pricing`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["CREDITS_PER_CPU_HOUR", "PriceBook", "parse_pricing"]

#: Fixed exchange rate (§3.3): 1 CPU·hour of Cloud worker = 15 credits.
CREDITS_PER_CPU_HOUR = 15.0


def _positive_rate(rate, what: str) -> float:
    value = float(rate)
    if not value > 0:
        raise ValueError(f"{what} must be positive, got {rate!r}")
    return value


class PriceBook:
    """Credits/CPU·hour per provider — the single pricing source.

    ``rates`` maps provider names (case-insensitive) to constant rates;
    providers absent from the map quote ``default`` (the paper's 15
    unless overridden).  Every rate is converted to a float once, here,
    so :meth:`rate` is one dict lookup and returns the same float on
    every call.  The :class:`~repro.economics.billing.BillingMeter` and
    the ``cheapest_drain`` router read rates from here, so one object
    defines the scenario's economy.
    """

    def __init__(self, rates: Optional[Mapping[str, float]] = None,
                 default: float = CREDITS_PER_CPU_HOUR):
        self.default = _positive_rate(default, "default rate")
        self._rates: Dict[str, float] = {
            name.lower(): _positive_rate(rate, f"rate for {name!r}")
            for name, rate in (rates or {}).items()}

    @classmethod
    def uniform(cls, rate: float = CREDITS_PER_CPU_HOUR) -> "PriceBook":
        """The fixed-exchange-rate economy of the paper (§3.3)."""
        return cls(default=rate)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[str, float]],
                   default: float = CREDITS_PER_CPU_HOUR) -> "PriceBook":
        """Book from the hashable ``(provider, rate)`` pairs scenario
        configs carry."""
        return cls(rates=dict(pairs), default=default)

    def rate(self, provider: str) -> float:
        """Credits per CPU·hour of one provider."""
        return self._rates.get(provider.lower(), self.default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        quotes = "".join(f", {name}={rate:g}"
                         for name, rate in sorted(self._rates.items()))
        return f"PriceBook(default={self.default:g}{quotes})"


def parse_pricing(text: str) -> Tuple[Tuple[str, float], ...]:
    """CLI pricing pairs: ``"stratuslab=6,ec2=18"`` → ``(("stratuslab",
    6.0), ("ec2", 18.0))`` — the declarative form
    :class:`~repro.experiments.config.ScenarioConfig` carries."""
    pairs: List[Tuple[str, float]] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"pricing entry {chunk!r} must be "
                             f"PROVIDER=RATE (e.g. ec2=18)")
        name, rate_text = chunk.split("=", 1)
        try:
            rate = float(rate_text)
        except ValueError:
            raise ValueError(f"pricing entry {chunk!r}: rate "
                             f"{rate_text!r} is not a number") from None
        if rate <= 0:
            raise ValueError(f"pricing entry {chunk!r}: rate must be "
                             f"positive")
        pairs.append((name.strip(), rate))
    return tuple(pairs)
