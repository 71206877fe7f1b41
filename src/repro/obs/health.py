"""Health evaluation over the metrics registry: SLOs, burn rates, and
hash-quality drift detection.

Two watchdogs close the telemetry → evaluation → alert loop that PRs
2–4 left open:

* :class:`SloEngine` evaluates declarative :class:`SloSpec`\\ s against
  the live :class:`~repro.obs.registry.MetricsRegistry` with
  **multi-window burn-rate alerting**.  The burn rate is the classic
  SRE quantity: *observed bad fraction / error budget* (budget =
  ``1 - objective``), so burn 1.0 exactly spends the budget over the
  SLO period and burn 14.4 exhausts 5% of a 30-day budget within
  hours.  Two windows fire independently —

  - the **fast** window (the histogram's bounded observation window,
    or the counter delta since the previous evaluation) pages at
    :data:`FAST_BURN_THRESHOLD` = 14.4, catching a sudden failure
    (a stalled shard) within one evaluation;
  - the **slow** window (lifetime counters / the engine's accumulated
    tallies) tickets at :data:`SLOW_BURN_THRESHOLD` = 3.0, catching a
    sustained moderate burn (≈1% of the budget per hour) that the
    fast window's recency hides.

* :class:`HashQualityDetector` watches the live Eq. 1 *balance* and
  Eq. 2 *concentration* gauges the store publishes per scheme
  (``store.balance{scheme=...}`` / ``store.concentration{scheme=...}``)
  against per-scheme :class:`DriftBand`\\ s.  The default bands encode
  the paper's Figure 5 ordering as a monitored invariant: pMod and
  pDisp are *expected* near-ideal (balance ≈ 1.0 on structured
  streams), so a prime scheme drifting out of its tight band is a
  regression in hashing or routing — while traditional modulo is
  *allowed* to be bad (unbounded default band; its badness is the
  paper's baseline, not a deployment fault).  :func:`strict_bands`
  applies the near-ideal band to *every* scheme, which is how the
  ``health`` experiment demonstrates the detector trips on
  traditional-where-a-prime-scheme-was-expected and stays green on
  pMod/pDisp.

Every fired or resolved alert and every tripped band also lands on the
journal (:mod:`repro.obs.journal`) and the pre-declared ``health.*``
metric series, so the dashboard and the snapshot both see them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.journal import Journal, get_journal
from repro.obs.registry import MetricsRegistry, get_registry

__all__ = [
    "AdversaryStatus",
    "Alert",
    "DEFAULT_DRIFT_BANDS",
    "DriftBand",
    "DriftStatus",
    "FAST_BURN_THRESHOLD",
    "HashQualityDetector",
    "LATENCY_SLO",
    "NEAR_IDEAL_BALANCE",
    "REJECT_SLO",
    "SLOW_BURN_THRESHOLD",
    "SloEngine",
    "SloSpec",
    "SloStatus",
    "default_slos",
    "strict_bands",
]

#: Fast-window burn rate that pages: 14.4x spends 5% of a 30-day error
#: budget in ~2.5 hours (the SRE workbook's fast-burn rule).
FAST_BURN_THRESHOLD = 14.4

#: Slow-window burn rate that tickets: 3x spends 1% of a 30-day budget
#: in ~2.4 hours and the whole budget in 10 days (sustained moderate
#: burn the fast window's recency bias would hide).
SLOW_BURN_THRESHOLD = 3.0

#: Fraction of the fast-window error budget each rule consumes before
#: it may fire, documented on the alert.
_RULE_BUDGETS = {"fast": 0.05, "slow": 0.01}

#: Names of the serving SLOs :func:`default_slos` defines; the
#: remediation controller pages on them and the health drill checks
#: them.
LATENCY_SLO = "serve-p99-latency"
REJECT_SLO = "serve-reject-rate"


@dataclass(frozen=True)
class SloSpec:
    """One declarative service-level objective.

    Two kinds:

    * ``ratio`` — good/bad events counted from counters.  ``bad`` and
      ``total`` name counter series (label-subset matched, summed);
      ``total`` may be a tuple of names whose values are added (e.g.
      cache hits + misses).
    * ``latency`` — a histogram plus a threshold; an observation above
      ``threshold_s`` is a bad event.  The fast window is exact (the
      histogram keeps its raw window); the slow window accumulates the
      engine's per-evaluation estimates.

    ``objective`` is the required good fraction in (0, 1); the error
    budget is ``1 - objective``.
    """

    name: str
    description: str
    objective: float
    kind: str  #: "ratio" | "latency"
    bad: Optional[str] = None
    total: Tuple[str, ...] = ()
    metric: Optional[str] = None
    threshold_s: Optional[float] = None
    labels: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self):
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be within (0, 1)")
        if self.kind == "ratio":
            if not self.bad or not self.total:
                raise ValueError("ratio SLO needs bad and total counters")
        elif self.kind == "latency":
            if not self.metric or self.threshold_s is None:
                raise ValueError("latency SLO needs metric and threshold_s")
            if self.threshold_s <= 0:
                raise ValueError("threshold_s must be positive")
        else:
            raise ValueError(f"unknown SLO kind {self.kind!r}")

    @property
    def budget(self) -> float:
        return 1.0 - self.objective

    @classmethod
    def ratio(cls, name: str, bad: str, total, objective: float,
              description: str = "", **labels: Any) -> "SloSpec":
        """Counter-ratio SLO: ``bad``/``total`` must stay within budget."""
        total_names = (total,) if isinstance(total, str) else tuple(total)
        return cls(name=name, description=description, objective=objective,
                   kind="ratio", bad=bad, total=total_names,
                   labels=tuple(sorted(labels.items())))

    @classmethod
    def latency(cls, name: str, metric: str, threshold_s: float,
                objective: float, description: str = "",
                **labels: Any) -> "SloSpec":
        """Histogram-threshold SLO: observations over ``threshold_s``
        are bad events."""
        return cls(name=name, description=description, objective=objective,
                   kind="latency", metric=metric, threshold_s=threshold_s,
                   labels=tuple(sorted(labels.items())))


@dataclass(frozen=True)
class SloStatus:
    """One SLO's evaluated state: both windows, both verdicts."""

    name: str
    objective: float
    fast_bad: float
    fast_total: float
    slow_bad: float
    slow_total: float
    fast_burn: float
    slow_burn: float
    fast_alert: bool
    slow_alert: bool

    @property
    def alerting(self) -> bool:
        return self.fast_alert or self.slow_alert

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "objective": self.objective,
            "fast_bad": self.fast_bad,
            "fast_total": self.fast_total,
            "slow_bad": self.slow_bad,
            "slow_total": self.slow_total,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
            "fast_alert": self.fast_alert,
            "slow_alert": self.slow_alert,
            "alerting": self.alerting,
        }


@dataclass(frozen=True)
class Alert:
    """One active alert: which SLO, which window, how hot."""

    slo: str
    window: str  #: "fast" | "slow"
    severity: str  #: "page" (fast) | "ticket" (slow)
    burn_rate: float
    threshold: float
    budget_rule: float  #: budget fraction the rule guards (0.05 / 0.01)
    message: str

    def as_dict(self) -> Dict[str, Any]:
        return {"slo": self.slo, "window": self.window,
                "severity": self.severity, "burn_rate": self.burn_rate,
                "threshold": self.threshold,
                "budget_rule": self.budget_rule, "message": self.message}


def _sum_counters(registry: MetricsRegistry, names: Sequence[str],
                  labels: Mapping[str, Any]) -> float:
    total = 0.0
    for name in names:
        for instrument in registry.matching(name, **dict(labels)):
            if instrument.kind == "counter":
                total += instrument.value
    return total


class SloEngine:
    """Evaluates a set of :class:`SloSpec`\\ s against one registry.

    Stateful on purpose: the fast window for ratio SLOs is the counter
    delta *since the previous* :meth:`evaluate` call, and latency SLOs
    accumulate their slow-window tallies across evaluations, so the
    engine is the thing you poll (the experiment CLI does so after the
    run; a long-lived server would do so on a timer).  Alert
    transitions (fired / resolved) are edge-triggered onto the journal
    and the ``health.alerts`` counter.
    """

    def __init__(self, specs: Sequence[SloSpec],
                 registry: Optional[MetricsRegistry] = None,
                 journal: Optional[Journal] = None,
                 flight: Optional[Any] = None):
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError("SLO names must be unique")
        self.specs = tuple(specs)
        self._registry = registry
        self._journal = journal
        #: Optional :class:`~repro.obs.attrib.FlightRecorder`.  When a
        #: page-severity (fast-window) alert fires, the engine dumps the
        #: recorder so the traces behind the burn are preserved at the
        #: moment of the page, not whenever an operator gets around to
        #: asking.
        self.flight = flight
        #: name -> (bad, total) lifetime values at the last evaluation.
        self._prev: Dict[str, Tuple[float, float]] = {}
        #: name -> (bad, total) accumulated slow-window tallies
        #: (latency SLOs only; ratio SLOs read lifetime counters).
        self._accumulated: Dict[str, Tuple[float, float]] = {}
        self._active: Dict[Tuple[str, str], Alert] = {}
        self.evaluations = 0

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    @property
    def journal(self) -> Journal:
        return self._journal if self._journal is not None else get_journal()

    # -- evaluation ----------------------------------------------------

    def _windows(self, spec: SloSpec):
        """(fast_bad, fast_total, slow_bad, slow_total) for one spec."""
        registry = self.registry
        labels = dict(spec.labels)
        if spec.kind == "ratio":
            bad_now = _sum_counters(registry, (spec.bad,), labels)
            total_now = _sum_counters(registry, spec.total, labels)
            prev_bad, prev_total = self._prev.get(spec.name, (0.0, 0.0))
            fast_bad = max(0.0, bad_now - prev_bad)
            fast_total = max(0.0, total_now - prev_total)
            self._prev[spec.name] = (bad_now, total_now)
            return fast_bad, fast_total, bad_now, total_now
        # latency: exact fast window from the retained observations;
        # slow window accumulates fast-fraction estimates over the
        # lifetime count deltas (documented approximation — the
        # histogram does not retain per-observation history).
        values: List[float] = []
        count_now = 0.0
        for instrument in registry.matching(spec.metric, **labels):
            if instrument.kind == "histogram":
                values.extend(instrument.window_values())
                count_now += instrument.count
        fast_total = float(len(values))
        fast_bad = float(sum(1 for v in values if v > spec.threshold_s))
        prev_count = self._prev.get(spec.name, (0.0, 0.0))[0]
        delta = max(0.0, count_now - prev_count)
        fraction = fast_bad / fast_total if fast_total else 0.0
        acc_bad, acc_total = self._accumulated.get(spec.name, (0.0, 0.0))
        acc_bad += fraction * delta
        acc_total += delta
        self._accumulated[spec.name] = (acc_bad, acc_total)
        self._prev[spec.name] = (count_now, count_now)
        return fast_bad, fast_total, acc_bad, acc_total

    @staticmethod
    def _burn(bad: float, total: float, budget: float) -> float:
        if total <= 0:
            return 0.0
        return (bad / total) / budget

    def evaluate(self) -> List[SloStatus]:
        """Evaluate every SLO; publish gauges, fire/resolve alerts."""
        registry = self.registry
        statuses: List[SloStatus] = []
        self.evaluations += 1
        registry.counter("health.evaluations").inc()
        for spec in self.specs:
            fast_bad, fast_total, slow_bad, slow_total = self._windows(spec)
            fast_burn = self._burn(fast_bad, fast_total, spec.budget)
            slow_burn = self._burn(slow_bad, slow_total, spec.budget)
            status = SloStatus(
                name=spec.name, objective=spec.objective,
                fast_bad=fast_bad, fast_total=fast_total,
                slow_bad=slow_bad, slow_total=slow_total,
                fast_burn=fast_burn, slow_burn=slow_burn,
                fast_alert=fast_burn >= FAST_BURN_THRESHOLD,
                slow_alert=slow_burn >= SLOW_BURN_THRESHOLD,
            )
            statuses.append(status)
            registry.gauge("health.burn_rate", slo=spec.name,
                           window="fast").set(fast_burn)
            registry.gauge("health.burn_rate", slo=spec.name,
                           window="slow").set(slow_burn)
            self._transition(spec, "fast", status.fast_alert, fast_burn,
                             FAST_BURN_THRESHOLD)
            self._transition(spec, "slow", status.slow_alert, slow_burn,
                             SLOW_BURN_THRESHOLD)
        return statuses

    def _transition(self, spec: SloSpec, window: str, alerting: bool,
                    burn: float, threshold: float) -> None:
        key = (spec.name, window)
        was_active = key in self._active
        if alerting and not was_active:
            alert = Alert(
                slo=spec.name, window=window,
                severity="page" if window == "fast" else "ticket",
                burn_rate=burn, threshold=threshold,
                budget_rule=_RULE_BUDGETS[window],
                message=(f"{spec.name}: {window}-window burn rate "
                         f"{burn:.1f}x >= {threshold:.1f}x "
                         f"(objective {spec.objective})"),
            )
            self._active[key] = alert
            self.registry.counter("health.alerts").inc()
            self.journal.emit("health.alert_fired", slo=spec.name,
                              window=window, burn_rate=burn,
                              threshold=threshold,
                              severity=alert.severity)
            if alert.severity == "page" and self.flight is not None:
                self.flight.dump(reason=f"slo:{spec.name}:{window}")
        elif not alerting and was_active:
            del self._active[key]
            self.journal.emit("health.alert_resolved", slo=spec.name,
                              window=window, burn_rate=burn)

    def active_alerts(self) -> List[Alert]:
        """Currently firing alerts, fast (paging) first."""
        return sorted(self._active.values(),
                      key=lambda a: (a.window != "fast", a.slo))

    def __repr__(self) -> str:
        return (f"SloEngine(slos={len(self.specs)}, "
                f"active_alerts={len(self._active)}, "
                f"evaluations={self.evaluations})")


def default_slos(p99_target_s: float = 0.05) -> List[SloSpec]:
    """The serving stack's standing SLOs.

    * ``serve-p99-latency`` — at most 1% of recent requests slower
      than ``p99_target_s`` (the p99 target as a counted objective, so
      it burns like an error budget);
    * ``serve-reject-rate`` — admission rejects within budget (5%);
    * ``engine-cache-hit-ratio`` — result-cache misses within budget
      (a collapsed hit ratio means the content-addressed cache stopped
      doing its job — every cell is simulated again).
    """
    return [
        SloSpec.latency(
            LATENCY_SLO, metric="serve.latency_s",
            threshold_s=p99_target_s, objective=0.99,
            description=f"p99 request latency <= {p99_target_s * 1e3:g} ms"),
        SloSpec.ratio(
            REJECT_SLO, bad="serve.rejected",
            total="serve.requests", objective=0.95,
            description="admission rejects within budget"),
        SloSpec.ratio(
            "engine-cache-hit-ratio", bad="engine.cache.misses",
            total=("engine.cache.hits", "engine.cache.misses"),
            objective=0.5,
            description="result-cache misses within budget"),
    ]


# -- hash-quality drift ------------------------------------------------


@dataclass(frozen=True)
class DriftBand:
    """Healthy ceilings for one scheme's live hashing quality.

    ``balance_max`` bounds Eq. 1 (1.0 is ideal, bigger is worse);
    ``concentration_max`` bounds Eq. 2 (0.0 is ideal).  ``inf`` means
    "not monitored" — the traditional scheme's default, because its
    pathological behavior on structured streams is the paper's
    baseline, not a deployment regression.
    """

    balance_max: float = math.inf
    concentration_max: float = math.inf


#: The near-ideal Eq. 1 balance ceiling: the paper's Figure 5 shows
#: pMod and pDisp holding balance near 1.0 on structured streams.
NEAR_IDEAL_BALANCE = 1.5

#: Per-scheme expected bands.  pMod/pDisp must hold the near-ideal
#: balance the paper's Figure 5 shows for them on structured streams;
#: XOR is permitted its known pow2-alignment weakness (Figure 5's
#: middle curve) via a looser ceiling; traditional is unmonitored.
DEFAULT_DRIFT_BANDS: Dict[str, DriftBand] = {
    "traditional": DriftBand(),
    "xor": DriftBand(balance_max=16.0),
    "pmod": DriftBand(balance_max=NEAR_IDEAL_BALANCE),
    "pdisp": DriftBand(balance_max=NEAR_IDEAL_BALANCE),
    "keyed": DriftBand(balance_max=NEAR_IDEAL_BALANCE),
    "keyed_pdisp": DriftBand(balance_max=NEAR_IDEAL_BALANCE),
}

#: Adversary mode's thresholds: the hottest shard's load relative to
#: its ideal share, the share of all accesses the top-K keys landing
#: on it must carry, and the consecutive suspicious grades that page.
ADVERSARY_TAIL_MAX = 4.0
ADVERSARY_HOT_KEY_SHARE = 0.25
ADVERSARY_SUSTAIN = 2


def strict_bands(n_shards: int) -> Dict[str, DriftBand]:
    """The near-ideal band applied to *every* scheme.

    This is the Figure 5 ordering turned into a detector: on a
    structured (pow2-strided) stream a prime scheme sits inside this
    band and traditional modulo cannot, so grading all schemes against
    it makes "someone routed prime traffic through traditional" a red
    alert while pMod/pDisp stay green.  The concentration ceiling is
    ``n_shards / 4``: a collapsed selector concentrates toward
    ``n_shards - 1`` (every access re-hitting one shard) while healthy
    prime selection on strided streams stays near single digits.
    """
    band = DriftBand(balance_max=NEAR_IDEAL_BALANCE,
                     concentration_max=n_shards / 4.0)
    return {scheme: band for scheme in DEFAULT_DRIFT_BANDS}


@dataclass(frozen=True)
class DriftStatus:
    """One scheme's graded hashing quality.

    ``top_keys`` names the heaviest routed keys at grading time (from
    the store's :class:`~repro.obs.attrib.HeavyHitterTracker`, when one
    is feeding the detector), so a concentration trip reads "these keys
    are the skew" instead of a bare number.
    """

    scheme: str
    balance: float
    concentration: float
    balance_max: float
    concentration_max: float
    balance_ok: bool
    concentration_ok: bool
    top_keys: Tuple[Mapping[str, Any], ...] = ()

    @property
    def ok(self) -> bool:
        return self.balance_ok and self.concentration_ok

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme,
            "balance": self.balance,
            "concentration": self.concentration,
            "balance_max": (None if math.isinf(self.balance_max)
                            else self.balance_max),
            "concentration_max": (None if math.isinf(self.concentration_max)
                                  else self.concentration_max),
            "balance_ok": self.balance_ok,
            "concentration_ok": self.concentration_ok,
            "ok": self.ok,
            "top_keys": [dict(row) for row in self.top_keys],
        }


@dataclass(frozen=True)
class AdversaryStatus:
    """One adversarial-drift observation of a store's telemetry.

    ``suspicious`` is this single observation's verdict (hot shard
    *and* hot keys concentrated on it); ``tripped`` is the sustained
    alarm state after :data:`ADVERSARY_SUSTAIN` consecutive suspicious
    observations.
    """

    scheme: str
    tail_load: float
    hot_key_share: float  #: top-K traffic share landing on the hottest shard
    tail_max: float
    share_min: float
    suspicious: bool
    tripped: bool
    streak: int


class HashQualityDetector:
    """Grades live per-scheme balance/concentration against bands.

    Reads the ``store.balance{scheme=...}`` and
    ``store.concentration{scheme=...}`` gauges that
    :meth:`repro.store.ShardedStore.telemetry` publishes (or grades a
    :class:`~repro.store.engine.StoreTelemetry` directly via
    :meth:`grade`).  Trips are edge-triggered onto the journal and the
    ``health.drift.trips`` counter; the per-scheme verdict is mirrored
    to the ``health.drift.ok`` gauge (1 = inside band).

    **Adversary mode** (:meth:`grade_adversary`) watches for
    *deliberate* skew rather than accidental drift: traffic that pins
    one shard (``tail_load`` at or above :data:`ADVERSARY_TAIL_MAX`)
    while the heavy-hitter top-K shows the traffic is a small recycled
    key set aimed at that shard (their share of all accesses at or
    above :data:`ADVERSARY_HOT_KEY_SHARE`).  Accidental skew (zipfian
    hot keys) spreads its hitters across shards; a crack-and-flood
    attack cannot avoid both signals at once.  Sustained for
    :data:`ADVERSARY_SUSTAIN` consecutive observations, it pages: ``health.alert_fired`` with
    ``slo="health.adversary"``, mirrored to ``health.adversary.ok`` /
    ``health.adversary.trips`` — the page the
    :class:`~repro.control.RemediationController` answers with a key
    rotation.
    """

    def __init__(self, bands: Optional[Mapping[str, DriftBand]] = None,
                 registry: Optional[MetricsRegistry] = None,
                 journal: Optional[Journal] = None):
        self.bands: Dict[str, DriftBand] = dict(bands or DEFAULT_DRIFT_BANDS)
        self._registry = registry
        self._journal = journal
        self._tripped: Dict[str, DriftStatus] = {}
        self._adversary_streak: Dict[str, int] = {}
        self._adversary_tripped: Dict[str, AdversaryStatus] = {}

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    @property
    def journal(self) -> Journal:
        return self._journal if self._journal is not None else get_journal()

    def band_for(self, scheme: str) -> DriftBand:
        """The scheme's band (unmonitored for unknown schemes)."""
        return self.bands.get(scheme, DriftBand())

    def grade(self, scheme: str, balance: float, concentration: float,
              top_keys: Sequence[Mapping[str, Any]] = ()) -> DriftStatus:
        """Grade one (balance, concentration) pair; records the trip.

        NaN values (an idle store) grade as inside-band: no traffic is
        not drift.  ``top_keys`` (heavy-hitter rows from the store)
        ride the status and — on a trip — the journal event, naming
        the keys behind the concentration.
        """
        band = self.band_for(scheme)
        balance_ok = not (math.isfinite(balance)
                          and balance > band.balance_max)
        concentration_ok = not (math.isfinite(concentration)
                                and concentration > band.concentration_max)
        status = DriftStatus(
            scheme=scheme, balance=balance, concentration=concentration,
            balance_max=band.balance_max,
            concentration_max=band.concentration_max,
            balance_ok=balance_ok, concentration_ok=concentration_ok,
            top_keys=tuple(dict(row) for row in top_keys),
        )
        registry = self.registry
        registry.gauge("health.drift.ok", scheme=scheme).set(
            1.0 if status.ok else 0.0)
        was_tripped = scheme in self._tripped
        if not status.ok and not was_tripped:
            self._tripped[scheme] = status
            registry.counter("health.drift.trips").inc()
            self.journal.emit(
                "health.drift_tripped", scheme=scheme,
                balance=None if math.isnan(balance) else balance,
                concentration=(None if math.isnan(concentration)
                               else concentration),
                balance_max=(None if math.isinf(band.balance_max)
                             else band.balance_max),
                concentration_max=(None
                                   if math.isinf(band.concentration_max)
                                   else band.concentration_max),
                top_keys=[dict(row) for row in status.top_keys])
        elif status.ok and was_tripped:
            del self._tripped[scheme]
            self.journal.emit("health.drift_recovered", scheme=scheme)
        return status

    def grade_telemetry(self, telemetry) -> DriftStatus:
        """Grade a :class:`~repro.store.engine.StoreTelemetry` snapshot
        (its ``top_keys`` heavy hitters, when present, name the keys
        behind any trip)."""
        return self.grade(telemetry.scheme, telemetry.balance,
                          telemetry.concentration,
                          top_keys=getattr(telemetry, "top_keys", ()))

    def evaluate(self) -> List[DriftStatus]:
        """Grade every scheme with a live ``store.balance`` gauge."""
        registry = self.registry
        balances = {
            g.labels["scheme"]: g.value
            for g in registry.matching("store.balance")
            if g.kind == "gauge" and "scheme" in g.labels
        }
        concentrations = {
            g.labels["scheme"]: g.value
            for g in registry.matching("store.concentration")
            if g.kind == "gauge" and "scheme" in g.labels
        }
        return [
            self.grade(scheme, balances[scheme],
                       concentrations.get(scheme, math.nan))
            for scheme in sorted(balances)
        ]

    def tripped(self) -> List[DriftStatus]:
        """Schemes currently outside their band."""
        return [self._tripped[s] for s in sorted(self._tripped)]

    # -- adversary mode -------------------------------------------------

    def grade_adversary(self, telemetry) -> AdversaryStatus:
        """Grade one telemetry snapshot for *deliberate* hot-shard skew.

        Suspicious when the hottest shard carries at least
        :data:`ADVERSARY_TAIL_MAX` times its ideal share **and** the
        heavy-hitter top-K rows landing on that shard account for at
        least :data:`ADVERSARY_HOT_KEY_SHARE` of all accesses.  The
        alarm trips (pages) only after :data:`ADVERSARY_SUSTAIN`
        consecutive suspicious snapshots and resolves on the first
        healthy one — edge-triggered, like drift.
        """
        scheme = telemetry.scheme
        tail_load = float(telemetry.tail_load)
        accesses = max(1, int(telemetry.accesses))
        shard_accesses = list(telemetry.shard_accesses)
        hottest = (shard_accesses.index(max(shard_accesses))
                   if shard_accesses else -1)
        hot_count = sum(
            int(row.get("count", 0))
            for row in getattr(telemetry, "top_keys", ())
            if row.get("where") == hottest)
        hot_key_share = hot_count / accesses
        suspicious = (math.isfinite(tail_load)
                      and tail_load >= ADVERSARY_TAIL_MAX
                      and hot_key_share >= ADVERSARY_HOT_KEY_SHARE)
        streak = self._adversary_streak.get(scheme, 0) + 1 if suspicious \
            else 0
        self._adversary_streak[scheme] = streak
        was_tripped = scheme in self._adversary_tripped
        tripped = (streak >= ADVERSARY_SUSTAIN) or (suspicious
                                                    and was_tripped)
        status = AdversaryStatus(
            scheme=scheme, tail_load=tail_load,
            hot_key_share=hot_key_share,
            tail_max=ADVERSARY_TAIL_MAX,
            share_min=ADVERSARY_HOT_KEY_SHARE,
            suspicious=suspicious, tripped=tripped, streak=streak)
        registry = self.registry
        registry.gauge("health.adversary.ok", scheme=scheme).set(
            0.0 if tripped else 1.0)
        if tripped and not was_tripped:
            self._adversary_tripped[scheme] = status
            registry.counter("health.adversary.trips").inc()
            registry.counter("health.alerts").inc()
            self.journal.emit(
                "health.alert_fired", slo="health.adversary",
                window="telemetry", severity="page", scheme=scheme,
                tail_load=tail_load, hot_key_share=hot_key_share,
                tail_max=ADVERSARY_TAIL_MAX,
                share_min=ADVERSARY_HOT_KEY_SHARE)
        elif not tripped and was_tripped:
            del self._adversary_tripped[scheme]
            self.journal.emit("health.alert_resolved",
                              slo="health.adversary", window="telemetry",
                              scheme=scheme)
        elif tripped:
            self._adversary_tripped[scheme] = status
        return status

    def adversary_tripped(self) -> List[AdversaryStatus]:
        """Schemes with the adversarial-drift page currently active."""
        return [self._adversary_tripped[s]
                for s in sorted(self._adversary_tripped)]

    def adversary_streak(self, scheme: str) -> int:
        """Consecutive suspicious observations for ``scheme`` (0 =
        clean).  Nonzero-but-below-:data:`ADVERSARY_SUSTAIN` means a
        verdict is *pending* — consumers (the controller's drift rule)
        use this to hold fire until the attack call is made."""
        return self._adversary_streak.get(scheme, 0)

    def __repr__(self) -> str:
        return (f"HashQualityDetector(bands={len(self.bands)}, "
                f"tripped={sorted(self._tripped)}, "
                f"adversary={sorted(self._adversary_tripped)})")
