"""Per-provider pricing: the exchange rates of the economics plane.

The paper's credit system (§3.3) fixes one exchange rate — 15 credits
per CPU·hour of Cloud worker usage — and the reproduction hard-coded it
wherever credits met CPU time.  Real federated deployments buy their
supplements from clouds with very different prices (Thai et al.,
"Executing Bag of Distributed Tasks on Virtually Unlimited Cloud
Resources", model exactly this cost/makespan trade-off), so the rate
becomes data: a :class:`PriceBook` maps provider names to credit rates,
with two tiers (on-demand and spot) and a *time-varying hook* — a rate
may be a plain number or any ``f(now) -> rate`` callable, which is how
an :class:`~repro.infra.spot.SpotMarket` price trace drives the spot
tier (:func:`spot_rate`).

The default book is uniform at :data:`~repro.core.credit.
CREDITS_PER_CPU_HOUR` for every provider, so every pre-economics code
path keeps its exact arithmetic: a uniform book multiplies by the same
float the inline constant used to.

Declarative form: scenario configs carry pricing as hashable
``(provider, rate)`` pairs (:meth:`PriceBook.from_pairs`); the CLI
accepts the same pairs as ``provider=rate`` text (:func:`parse_pricing`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.core.credit import CREDITS_PER_CPU_HOUR

__all__ = ["ONDEMAND", "SPOT", "PRICE_TIERS", "ProviderPricing",
           "PriceBook", "parse_pricing", "spot_rate"]

#: price tiers a provider may quote
ONDEMAND = "ondemand"
SPOT = "spot"
PRICE_TIERS = (ONDEMAND, SPOT)

#: a rate is a constant or a function of virtual time (credits/CPU·h)
RateLike = Union[float, int, Callable[[float], float]]


def _resolve(rate: RateLike, now: float) -> float:
    value = rate(now) if callable(rate) else float(rate)
    if value < 0:
        raise ValueError(f"price resolved to a negative rate: {value!r}")
    return float(value)


class ProviderPricing:
    """One provider's quote: on-demand rate plus an optional spot tier.

    Rates are credits per CPU·hour; either tier accepts a constant or
    an ``f(now)`` callable (the time-varying hook).  A provider without
    a spot tier quotes its on-demand rate for spot requests — the
    conservative reading (you never pay less than quoted).
    """

    def __init__(self, ondemand: RateLike,
                 spot: Optional[RateLike] = None):
        if not callable(ondemand) and float(ondemand) <= 0:
            raise ValueError("ondemand rate must be positive")
        if spot is not None and not callable(spot) and float(spot) <= 0:
            raise ValueError("spot rate must be positive")
        self.ondemand = ondemand
        self.spot = spot

    def rate(self, now: float = 0.0, tier: str = ONDEMAND) -> float:
        """Credits per CPU·hour quoted at virtual time ``now``."""
        if tier not in PRICE_TIERS:
            raise ValueError(f"unknown price tier {tier!r}; available: "
                             f"{', '.join(PRICE_TIERS)}")
        if tier == SPOT and self.spot is not None:
            return _resolve(self.spot, now)
        return _resolve(self.ondemand, now)

    @property
    def time_varying(self) -> bool:
        return callable(self.ondemand) or callable(self.spot)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ProviderPricing(ondemand={self.ondemand!r}, "
                f"spot={self.spot!r})")


class PriceBook:
    """Credits/CPU·hour per provider — the single pricing source.

    ``rates`` maps lower-cased provider names to a
    :class:`ProviderPricing`, a plain rate, or an ``f(now)`` callable;
    providers absent from the map quote ``default`` (the paper's 15
    unless overridden).  The :class:`~repro.economics.billing.
    BillingMeter`, the admission controller's cost predictions and the
    ``cheapest_drain`` router all read rates from here, so one object
    defines the scenario's economy.
    """

    def __init__(self, rates: Optional[Mapping[str, Union[
            ProviderPricing, RateLike]]] = None,
            default: float = CREDITS_PER_CPU_HOUR):
        if default <= 0:
            raise ValueError("default rate must be positive")
        self.default = float(default)
        self._rates: Dict[str, ProviderPricing] = {}
        # static-rate fast path: (provider, tier) -> resolved rate,
        # populated only once is_static() holds (see rate()).
        self._rate_cache: Dict[Tuple[str, str], float] = {}
        self._static: Optional[bool] = None
        for name, rate in (rates or {}).items():
            self.set_rate(name, rate)

    # ------------------------------------------------------------------
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

    @classmethod
    def from_profiles(cls, profiles: Iterable,
                      default: float = CREDITS_PER_CPU_HOUR) -> "PriceBook":
        """Book seeded from :class:`~repro.cloud.api.ProviderProfile`
        price fields (``price_per_cpu_hour`` / ``spot_price_per_cpu_hour``)."""
        rates: Dict[str, ProviderPricing] = {}
        for profile in profiles:
            rates[profile.name] = ProviderPricing(
                profile.price_per_cpu_hour,
                getattr(profile, "spot_price_per_cpu_hour", None))
        return cls(rates=rates, default=default)

    # ------------------------------------------------------------------
    def set_rate(self, provider: str,
                 rate: Union[ProviderPricing, RateLike]) -> None:
        pricing = rate if isinstance(rate, ProviderPricing) \
            else ProviderPricing(rate)
        self._rates[provider.lower()] = pricing
        self._rate_cache.clear()
        self._static = None

    def pricing_for(self, provider: str) -> ProviderPricing:
        return self._rates.get(provider.lower(),
                               ProviderPricing(self.default))

    def is_static(self) -> bool:
        """True when no quote is time-varying, so a rate resolved once
        stays valid for every later ``now`` — the license for the
        scheduler's per-provider rate cache.  Any :meth:`set_rate` after
        this is answered invalidates the cache and re-derives it."""
        if self._static is None:
            self._static = all(not p.time_varying
                               for p in self._rates.values())
        return self._static

    def rate(self, provider: str, now: float = 0.0,
             tier: str = ONDEMAND) -> float:
        """Credits per CPU·hour of one provider at virtual time ``now``.

        For static books (:meth:`is_static`) the resolved rate is cached
        per ``(provider, tier)`` — the cached float is exactly the value
        the first resolution produced, so billing arithmetic is
        unchanged; time-varying books resolve on every call.
        """
        key = (provider, tier)
        cached = self._rate_cache.get(key)
        if cached is not None:
            return cached
        value = self.pricing_for(provider).rate(now, tier)
        if self.is_static():
            self._rate_cache[key] = value
        return value

    def providers(self) -> List[str]:
        """Providers with an explicit (non-default) quote, sorted."""
        return sorted(self._rates)

    @property
    def is_uniform(self) -> bool:
        """True when every provider quotes the same constant rate —
        the regime in which the economics plane is bit-identical to
        the fixed exchange rate it replaced."""
        return all(not p.time_varying
                   and p.rate() == self.default
                   for p in self._rates.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        quotes = ", ".join(f"{name}={pricing.rate():g}"
                           for name, pricing in sorted(self._rates.items()))
        return f"PriceBook(default={self.default:g}{', ' + quotes if quotes else ''})"


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


def spot_rate(market, credits_per_dollar: float) -> Callable[[float], float]:
    """Time-varying spot rate driven by an
    :class:`~repro.infra.spot.SpotMarket` price trace.

    The market quotes dollars per instance·hour; ``credits_per_dollar``
    converts to the credit economy, so ``rate(now) =
    credits_per_dollar × market.price_at(now)`` — plug the result into
    a :class:`ProviderPricing` spot tier (or straight into a
    :class:`PriceBook` entry) and the meter bills the spike the ladder
    died under.
    """
    if credits_per_dollar <= 0:
        raise ValueError("credits_per_dollar must be positive")

    def rate(now: float) -> float:
        return credits_per_dollar * market.price_at(now)

    return rate
