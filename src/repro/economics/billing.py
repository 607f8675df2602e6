"""Unified billing: one per-provider accounting source for credits.

The Scheduler used to price Cloud usage inline
(``15 * busy_seconds / 3600``), which welded the whole service to one
exchange rate.  The :class:`BillingMeter` owns that conversion: it
reads the rate from the scenario's
:class:`~repro.economics.pricing.PriceBook` (one constant per
provider), bills the :class:`~repro.core.credit.CreditSystem`, and
keeps the per-provider ledger every consumer shares —

* the Scheduler's Algorithm 2 billing pass charges each tick's usage
  through :meth:`charge_many`, and a single worker's stop-time
  settlement through :meth:`charge`;
* launch sizing and the :class:`~repro.core.scheduler.CloudArbiter`'s
  ``credit_budget`` read spendable credits through
  :meth:`remaining_for` (pool-aware, delegated to the credit system);
* reports read :attr:`spent_by_provider` / :attr:`cpu_seconds_by_provider`
  for the per-cloud cost split.

Drift discipline: with the default uniform book the charge arithmetic
is float-for-float identical to the inline formula it replaced
(``rate * busy_seconds / 3600.0`` with the same ``rate``), so default
scenarios stay byte-identical.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.economics.pricing import PriceBook

__all__ = ["BillingMeter"]


class BillingMeter:
    """Prices Cloud usage per provider and bills the credit system."""

    def __init__(self, credits, book: Optional[PriceBook] = None):
        #: the scenario's :class:`~repro.core.credit.CreditSystem`
        self.credits = credits
        #: the pricing source (uniform paper rate unless a scenario
        #: attaches its own)
        self.book = book if book is not None else PriceBook()
        #: credits actually billed, keyed by provider name
        self.spent_by_provider: Dict[str, float] = {}
        #: busy CPU·seconds charged, keyed by provider name
        self.cpu_seconds_by_provider: Dict[str, float] = {}

    def rate_for(self, provider: str) -> float:
        """Credits per CPU·hour this provider charges."""
        return self.book.rate(provider)

    # ---------------------------------------------------------- billing
    def charge(self, bot_id: str, provider: str,
               busy_seconds: float) -> Tuple[float, float]:
        """Bill one worker's usage since the last tick.

        Returns ``(billed, asked)``: ``asked`` is the priced amount,
        ``billed`` what the order's remaining escrow could cover (the
        credit system clamps, exactly as before) — the Scheduler stops
        workers when ``billed < asked``.
        """
        if busy_seconds <= 0:
            return 0.0, 0.0
        asked = self.rate_for(provider) * busy_seconds / 3600.0
        billed = self.credits.bill(bot_id, asked)
        if billed:
            self.spent_by_provider[provider] = \
                self.spent_by_provider.get(provider, 0.0) + billed
        self.cpu_seconds_by_provider[provider] = \
            self.cpu_seconds_by_provider.get(provider, 0.0) + busy_seconds
        return billed, asked

    def charge_many(self, bot_id: str, provider: str,
                    busy_deltas: Sequence[float]) -> int:
        """Bill one provider's workers for one tick as a batch.

        ``busy_deltas`` are the positive deltas the Scheduler's charge
        pass keeps, at least one.  Byte-identical to calling :meth:`charge` once per
        delta in order: every ``asked`` is the same float the scalar
        calls would price; the escrow clamping runs per delta inside
        :meth:`CreditSystem.bill_many
        <repro.core.credit.CreditSystem.bill_many>` (float-identical
        to the repeated ``bill`` calls), and the per-provider totals
        accumulate in the same addition order as the repeated dict
        read-modify-writes.

        Returns the index of the first delta whose charge fell short
        (``billed < asked - 1e-9`` — the Scheduler's exhaustion test),
        or ``-1`` when every delta was covered.  Deltas after a
        shortfall are left uncharged, exactly as the historical loop
        stopped billing once the run was being torn down.
        """
        rate = self.rate_for(provider)
        billed_seq, fail = self.credits.bill_many(
            bot_id, [rate * b / 3600.0 for b in busy_deltas],
            shortfall_tol=1e-9)
        spent = self.spent_by_provider.get(provider, 0.0)
        cpu = self.cpu_seconds_by_provider.get(provider, 0.0)
        for billed, busy_seconds in zip(billed_seq, busy_deltas):
            if billed:
                spent = spent + billed
            cpu = cpu + busy_seconds
        if spent:
            self.spent_by_provider[provider] = spent
        self.cpu_seconds_by_provider[provider] = cpu
        return fail

    def remaining_for(self, bot_id: str) -> float:
        """Spendable credits behind an order (pool-aware) — the budget
        launch sizing and arbitration read."""
        return self.credits.remaining_for(bot_id)
