"""The economics plane: pricing and billing as a subsystem.

The paper fixes one exchange rate — 15 credits per CPU·hour (§3.3) —
and the reproduction used to hard-code it in every credit-touching
layer.  This package owns the conversion from CPU time to credits:

* :mod:`repro.economics.pricing` — the :class:`PriceBook`: one
  constant credit rate per CPU·hour per provider, and the
  declarative/CLI pair forms scenario configs carry;
* :mod:`repro.economics.billing` — the :class:`BillingMeter`: one
  per-provider accounting source replacing the Scheduler's inline
  rate math; launch sizing, arbitration budgets and the per-cloud
  spend ledger all read through it.

The paper's deposit function stays with the banking interface it
feeds (:class:`~repro.core.credit.CappedDailyDeposit`).  The default
economy (uniform book at the paper's rate) is bit-identical to the
fixed exchange rate it replaced — drift goldens and EDGI Table 5 pin
this.

Neither module imports :mod:`repro.core` (whose scheduler imports
this package), so either side can be imported first.
"""

from __future__ import annotations

from repro.economics.billing import BillingMeter
from repro.economics.pricing import PriceBook, parse_pricing

__all__ = ["BillingMeter", "PriceBook", "parse_pricing"]
