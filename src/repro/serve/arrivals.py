"""Seeded arrival-process load generators.

Three traffic shapes cover the service scenarios the roadmap asks for:

* :func:`poisson_arrivals` — memoryless steady load (the classic open-loop
  benchmark assumption);
* :func:`bursty_arrivals` — a two-state Markov-modulated Poisson process
  (on/off), the shape of transient-triggered radio-astronomy follow-up;
* :func:`diurnal_arrivals` — an inhomogeneous Poisson process with a
  sinusoidal rate profile, the shape of clinic-hours ultrasound traffic;
  its profile is exposed as :class:`RateForecast`, the rate forecast a
  predictive autoscaling policy sizes the fleet against.

Every generator is bit-deterministic for a fixed seed: child streams derive
through :func:`repro.util.rng.derive_seed`, so adding one generator never
perturbs another's arrivals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ShapeError
from repro.serve.workload import PipelineWorkload, Request, Workload
from repro.util.rng import derive_seed, make_rng


def _entry(workload: Workload | PipelineWorkload) -> tuple[Workload, PipelineWorkload, str]:
    """The (kernel workload, pipeline, stage name) an arrival enters at.

    Generators accept either descriptor form; a bare workload is its own
    one-stage pipeline. An arrival carries the *source stage's* workload
    (seed derivation keys on that workload's name, so both forms of one
    workload draw the same stream) plus the pipeline reference the service
    needs to release successor stages.
    """
    pipeline = workload if isinstance(workload, PipelineWorkload) else workload.single_stage()
    source = pipeline.source
    return source.workload, pipeline, source.name


@dataclass(frozen=True)
class RateForecast:
    """The known rate profile of a diurnal arrival process.

    A predictive autoscaling policy does not guess traffic — clinic-hours
    load is *scheduled*, and the profile that drives
    :func:`diurnal_arrivals` is exactly the forecast an operator would
    configure. This is that profile as a first-class object: the same
    ``base * (1 + amplitude * sin(2 pi t / period))`` formula the
    generator thins against, so forecast and traffic cannot drift apart.
    """

    base_rate_hz: float
    amplitude: float
    period_s: float
    #: time offset into the cycle: ``0.75 * period_s`` starts at the
    #: trough (the day begins at night), the 0.0 default at the mean.
    phase_s: float = 0.0

    def __post_init__(self) -> None:
        if self.base_rate_hz < 0:
            raise ShapeError(f"base rate must be >= 0, got {self.base_rate_hz}")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ShapeError(f"amplitude must be in [0, 1], got {self.amplitude}")
        if self.period_s <= 0:
            raise ShapeError(f"period_s must be positive, got {self.period_s}")

    def rate_hz(self, t_s: float) -> float:
        """Instantaneous arrival rate at ``t_s``."""
        return self.base_rate_hz * (
            1.0
            + self.amplitude
            * math.sin(2.0 * math.pi * (t_s + self.phase_s) / self.period_s)
        )

    def max_rate_hz(self, t0_s: float, t1_s: float) -> float:
        """Exact maximum of the rate profile over ``[t0_s, t1_s]``.

        What a predictive autoscaler sizes against: the worst rate inside
        its provisioning window. The sinusoid's maximum on an interval is
        either an interior crest (phase ``period/4 + k*period``) or an
        endpoint — no sampling, so the answer is exact and deterministic.
        """
        if t1_s < t0_s:
            raise ShapeError(f"empty window: [{t0_s}, {t1_s}]")
        k = math.ceil((t0_s + self.phase_s) / self.period_s - 0.25)
        t_crest = (0.25 + k) * self.period_s - self.phase_s
        if t0_s <= t_crest <= t1_s:
            return self.peak_rate_hz
        return max(self.rate_hz(t0_s), self.rate_hz(t1_s))

    @property
    def peak_rate_hz(self) -> float:
        return self.base_rate_hz * (1.0 + self.amplitude)


def poisson_arrivals(
    workload: Workload | PipelineWorkload,
    rate_hz: float,
    horizon_s: float,
    seed: int = 0,
    start_id: int = 0,
) -> list[Request]:
    """Homogeneous Poisson arrivals over ``[0, horizon_s)``.

    Inter-arrival gaps are exponential with mean ``1 / rate_hz``; the
    number of requests is itself random (as in an open system), so two
    rates are comparable over the same wall-clock horizon. ``workload``
    may be a :class:`~repro.serve.workload.PipelineWorkload`: arrivals
    then enter at the pipeline's source stage.
    """
    _check_rate(rate_hz, horizon_s)
    kernel, pipeline, stage = _entry(workload)
    rng = make_rng(derive_seed(seed, "poisson", kernel.name, rate_hz))
    requests: list[Request] = []
    t = rng.exponential(1.0 / rate_hz)
    while t < horizon_s:
        requests.append(
            Request(
                rid=start_id + len(requests), workload=kernel, arrival_s=t,
                pipeline=pipeline, stage=stage,
            )
        )
        t += rng.exponential(1.0 / rate_hz)
    return requests


def bursty_arrivals(
    workload: Workload | PipelineWorkload,
    rate_on_hz: float,
    rate_off_hz: float,
    mean_on_s: float,
    mean_off_s: float,
    horizon_s: float,
    seed: int = 0,
    start_id: int = 0,
) -> list[Request]:
    """Two-state Markov-modulated Poisson arrivals (on/off bursts).

    The process alternates exponentially-distributed ``on`` and ``off``
    dwell periods; arrivals within each period are Poisson at that period's
    rate (``rate_off_hz`` may be 0 for fully silent gaps). Starts in the
    ``on`` state.
    """
    _check_rate(rate_on_hz, horizon_s)
    if rate_off_hz < 0:
        raise ShapeError(f"rate_off_hz must be >= 0, got {rate_off_hz}")
    if mean_on_s <= 0 or mean_off_s <= 0:
        raise ShapeError("mean dwell times must be positive")
    kernel, pipeline, stage = _entry(workload)
    rng = make_rng(derive_seed(seed, "bursty", kernel.name, rate_on_hz, rate_off_hz))
    requests: list[Request] = []
    t, on = 0.0, True
    while t < horizon_s:
        dwell = rng.exponential(mean_on_s if on else mean_off_s)
        period_end = min(t + dwell, horizon_s)
        rate = rate_on_hz if on else rate_off_hz
        if rate > 0:
            at = t + rng.exponential(1.0 / rate)
            while at < period_end:
                requests.append(
                    Request(
                        rid=start_id + len(requests), workload=kernel, arrival_s=at,
                        pipeline=pipeline, stage=stage,
                    )
                )
                at += rng.exponential(1.0 / rate)
        t = period_end
        on = not on
    return requests


def diurnal_arrivals(
    workload: Workload | PipelineWorkload,
    base_rate_hz: float,
    amplitude: float,
    period_s: float,
    horizon_s: float,
    seed: int = 0,
    start_id: int = 0,
    phase_s: float = 0.0,
) -> list[Request]:
    """Inhomogeneous Poisson arrivals with a sinusoidal daily profile.

    The instantaneous rate is ``base * (1 + amplitude * sin(2 pi (t +
    phase) / period))``, sampled by Lewis-Shedler thinning against the
    peak rate — exact for any ``0 <= amplitude <= 1`` and still fully
    deterministic (``phase_s`` shifts where in the cycle the trace
    starts; the 0.0 default keeps historical streams byte-identical).
    The profile itself is available as :class:`RateForecast` — the input
    a predictive autoscaling policy sizes the fleet against.
    """
    _check_rate(base_rate_hz, horizon_s)
    forecast = RateForecast(base_rate_hz, amplitude, period_s, phase_s)
    kernel, pipeline, stage = _entry(workload)
    rng = make_rng(derive_seed(seed, "diurnal", kernel.name, base_rate_hz, amplitude))
    peak = forecast.peak_rate_hz
    requests: list[Request] = []
    t = rng.exponential(1.0 / peak)
    while t < horizon_s:
        rate_t = forecast.rate_hz(t)
        if rng.uniform() < rate_t / peak:
            requests.append(
                Request(
                    rid=start_id + len(requests), workload=kernel, arrival_s=t,
                    pipeline=pipeline, stage=stage,
                )
            )
        t += rng.exponential(1.0 / peak)
    return requests


def fit_rate_forecast(
    arrivals_s: list[float],
    period_s: float,
    horizon_s: float | None = None,
) -> RateForecast:
    """Fit a :class:`RateForecast` from *observed* arrival instants.

    Closes the loop a live deployment needs: the operator knows the day
    length (``period_s`` — clinic hours, sidereal schedule) but not the
    profile, which must be estimated from traffic actually seen. The fit
    is the closed-form first Fourier coefficient of the empirical
    arrival measure over whole periods:

    * ``base`` is the mean observed rate over the fitting window;
    * ``z = (2/N) * sum_k exp(-2 pi i t_k / T)`` estimates
      ``amplitude * exp(i * (phase_angle - pi/2))`` for an inhomogeneous
      Poisson process with rate ``base * (1 + A sin(2 pi (t+phase)/T))``,
      so ``amplitude = |z|`` (clamped into ``[0, 1]``) and
      ``phase_s = (arg(z) + pi/2) * T / (2 pi) mod T``.

    Only whole periods enter the window (a partial day would bias the
    phase toward wherever the window stopped); ``horizon_s`` defaults to
    the last arrival. Deterministic — pure arithmetic over the inputs —
    and unbiased in expectation, so fitted parameters converge on the
    generator's true profile as traffic grows (see the regression test
    pinning the fit against the oracle forecast).

    Degenerate observations clamp to a *flat* forecast (amplitude 0)
    instead of raising — a just-started deployment has not seen a day of
    traffic yet, and the caller's fallback is exactly "assume the mean":

    * no arrivals at all -> flat zero-rate forecast;
    * a window shorter than one whole period -> flat at the mean observed
      rate over ``horizon_s``;
    * fewer than two arrivals inside the fitting window -> flat at the
      window's mean rate (one point carries no phase information; the
      single-term Fourier sum would always claim amplitude 1).
    """
    if period_s <= 0:
        raise ShapeError(f"period_s must be positive, got {period_s}")
    if not arrivals_s:
        return RateForecast(base_rate_hz=0.0, amplitude=0.0, period_s=period_s)
    if horizon_s is None:
        horizon_s = max(arrivals_s)
    n_periods = math.floor(horizon_s / period_s + 1e-9)
    if n_periods < 1:
        base = len(arrivals_s) / horizon_s if horizon_s > 0 else 0.0
        return RateForecast(base_rate_hz=base, amplitude=0.0, period_s=period_s)
    window_s = n_periods * period_s
    used = [t for t in arrivals_s if 0.0 <= t < window_s]
    if len(used) < 2:
        return RateForecast(
            base_rate_hz=len(used) / window_s, amplitude=0.0, period_s=period_s
        )
    omega = 2.0 * math.pi / period_s
    re = sum(math.cos(omega * t) for t in used)
    im = -sum(math.sin(omega * t) for t in used)
    amplitude = min(1.0, 2.0 * math.hypot(re, im) / len(used))
    phase_s = ((math.atan2(im, re) + 0.5 * math.pi) / omega) % period_s
    return RateForecast(
        base_rate_hz=len(used) / window_s,
        amplitude=amplitude,
        period_s=period_s,
        phase_s=phase_s if amplitude > 0.0 else 0.0,
    )


def merge_arrivals(*streams: list[Request]) -> list[Request]:
    """Interleave several arrival streams into one sorted, re-numbered trace.

    Multi-tenant scenarios generate each workload's stream independently
    (keeping per-stream determinism) and merge here; request ids are
    reassigned in arrival order so they are unique across the trace.
    """
    merged = sorted((req for stream in streams for req in stream), key=lambda r: r.arrival_s)
    return [
        Request(
            rid=i, workload=r.workload, arrival_s=r.arrival_s, data=r.data,
            pipeline=r.pipeline, stage=r.stage,
        )
        for i, r in enumerate(merged)
    ]


def _check_rate(rate_hz: float, horizon_s: float) -> None:
    if rate_hz <= 0:
        raise ShapeError(f"arrival rate must be positive, got {rate_hz}")
    if horizon_s <= 0:
        raise ShapeError(f"horizon must be positive, got {horizon_s}")
