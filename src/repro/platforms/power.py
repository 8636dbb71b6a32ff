"""Ground-truth full-system AC power synthesis.

This is the simulator's stand-in for physics: given a machine's latent
activity, produce the wall power a perfect meter would read.  The paper's
central observation — that full-system power "goes beyond the superposition
of components" because of regulators, PSU inefficiency and chipset glue
(Section II) — is reproduced explicitly:

1. Component DC power is summed from nonlinear per-component curves
   (``repro.platforms.components``), scaled by the platform budget and the
   machine's individual variation.
2. The DC total passes through a load-dependent PSU efficiency curve, which
   bends the top of the AC range — exactly the region the paper shows
   linear models failing to predict (Figure 5).
3. An affine calibration maps the raw curve onto the platform's Table I
   range, so simulated idle and peak power land where the paper measured
   them.
4. A small unmodeled residual (fans, VR ripple, background OS jitter) sets
   the noise floor that bounds achievable model accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.activity import ActivityTrace, idle_activity
from repro.platforms import components
from repro.platforms.specs import PlatformSpec
from repro.platforms.variation import IDENTITY_VARIATION, MachineVariation


@dataclass(frozen=True)
class PSUCurve:
    """Power-supply efficiency as a function of load fraction.

    Efficiency peaks near ``optimal_load`` and falls off quadratically on
    both sides — the standard 80-PLUS-style bathtub inverted.
    """

    peak_efficiency: float = 0.89
    optimal_load: float = 0.45
    curvature: float = 0.50
    floor: float = 0.65

    def efficiency(self, load_fraction: np.ndarray) -> np.ndarray:
        load = np.clip(np.asarray(load_fraction, dtype=float), 0.0, 1.2)
        value = self.peak_efficiency - self.curvature * (load - self.optimal_load) ** 2
        return np.clip(value, self.floor, 1.0)


class PowerSynthesizer:
    """Ground-truth AC power for one machine (spec + individual variation)."""

    def __init__(
        self,
        spec: PlatformSpec,
        variation: MachineVariation = IDENTITY_VARIATION,
        psu: PSUCurve | None = None,
        residual_noise_frac: float = 0.004,
        hidden_disturbance_frac: float = 0.008,
        hidden_disturbance_rho: float = 0.97,
    ):
        self.spec = spec
        self.variation = variation
        self.psu = psu if psu is not None else PSUCurve()
        self.residual_noise_frac = residual_noise_frac
        self.hidden_disturbance_frac = hidden_disturbance_frac
        self.hidden_disturbance_rho = hidden_disturbance_rho
        self._calibrate()

    # ------------------------------------------------------------------
    # Raw (pre-calibration) power curve
    # ------------------------------------------------------------------
    def _component_fractions(self, activity: ActivityTrace) -> dict[str, np.ndarray]:
        cpu = components.cpu_fraction(activity, self.spec)
        memory = components.memory_fraction(activity, self.spec)
        disk = components.disk_fraction(activity, self.spec)
        network = components.network_fraction(activity, self.spec)
        board = components.board_fraction(cpu, memory, disk, network)
        return {
            "cpu": cpu,
            "memory": memory,
            "disk": disk,
            "network": network,
            "board": board,
        }

    def _raw_ac_power(self, activity: ActivityTrace) -> np.ndarray:
        budget = self.spec.budget
        budget_watts = {
            "cpu": budget.cpu_w,
            "memory": budget.memory_w,
            "disk": budget.disk_w,
            "network": budget.network_w,
            "board": budget.board_w,
        }
        factors = self.variation.component_factors()
        fractions = self._component_fractions(activity)

        dynamic_dc = np.zeros(activity.n_seconds)
        for name, fraction in fractions.items():
            dynamic_dc += budget_watts[name] * factors[name] * fraction

        idle_dc = self.spec.idle_power_w * self.variation.idle_factor * 0.85
        total_dc = idle_dc + dynamic_dc

        capacity = (self.spec.max_power_w * 1.25)  # PSU rated above peak draw
        load_fraction = total_dc / capacity
        efficiency = self.psu.efficiency(load_fraction)
        return total_dc / efficiency

    # ------------------------------------------------------------------
    # Calibration onto the Table I range
    # ------------------------------------------------------------------
    def _calibrate(self) -> None:
        """Affine-map the raw curve so idle/max activity hit the spec range.

        Calibration is computed for the *nominal* machine (variation
        applied), so individual machines still deviate from the platform's
        nominal range by their variation factors — the paper's
        machine-to-machine spread survives calibration.
        """
        n_probe = 8
        idle = idle_activity(
            self.spec.n_cores, n_probe, idle_freq_ghz=self.spec.idle_freq_ghz
        )
        full = _full_activity(self.spec, n_probe)

        raw_idle = float(np.mean(self._raw_ac_power(idle)))
        raw_full = float(np.mean(self._raw_ac_power(full)))
        if raw_full <= raw_idle:
            raise RuntimeError(
                f"{self.spec.key}: degenerate raw power curve "
                f"({raw_idle:.1f} W idle vs {raw_full:.1f} W full)"
            )

        nominal_idle = self.spec.idle_power_w * self.variation.idle_factor
        nominal_max = nominal_idle + self.spec.dynamic_range_w
        self._scale = (nominal_max - nominal_idle) / (raw_full - raw_idle)
        self._offset = nominal_idle - self._scale * raw_idle

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def true_power(
        self,
        activity: ActivityTrace,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Ground-truth AC watts per second for a latent activity trace.

        With ``rng`` provided, adds the unmodeled disturbances; without it,
        returns the deterministic component (useful for tests).  Two
        disturbances bound achievable model accuracy, as on real hardware:

        * white residual noise (VR ripple, background OS jitter), and
        * a slow AR(1) drift (fan duty cycles, component temperatures,
          PSU thermal efficiency shifts) that no OS counter observes —
          this is the floor under the paper's 2.5-11% best-case DREs.

        Both scale with the platform's *absolute* power level (fans and
        thermals track total dissipation), which is why small-dynamic-range
        platforms like the Atom show much larger DRE than servers at the
        same relative noise — the Table III inversion.
        """
        power = self._offset + self._scale * self._raw_ac_power(activity)
        if rng is not None:
            scale_w = self.spec.max_power_w
            if self.residual_noise_frac > 0:
                power = power + rng.normal(
                    0.0, self.residual_noise_frac * scale_w, size=power.shape
                )
            if self.hidden_disturbance_frac > 0:
                power = power + self._hidden_disturbance(power.shape[0], rng)
        return np.maximum(power, 0.0)

    def _hidden_disturbance(
        self, n_seconds: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Slow AR(1) thermal/fan drift, stationary sigma set by config."""
        rho = self.hidden_disturbance_rho
        sigma = self.hidden_disturbance_frac * self.spec.max_power_w
        innovations = rng.normal(
            0.0, sigma * np.sqrt(1.0 - rho**2), size=n_seconds
        )
        drift = np.empty(n_seconds)
        drift[0] = rng.normal(0.0, sigma)
        for t in range(1, n_seconds):
            drift[t] = rho * drift[t - 1] + innovations[t]
        return drift


def _full_activity(spec: PlatformSpec, n_seconds: int) -> ActivityTrace:
    """A trace with every component saturated, used as calibration anchor."""
    ones = np.ones(n_seconds)
    total_disk_bw = sum(d.max_bandwidth_bps for d in spec.disks)
    return ActivityTrace(
        core_util=np.ones((spec.n_cores, n_seconds)),
        core_freq_ghz=np.full((spec.n_cores, n_seconds), spec.max_freq_ghz),
        mem_pages_per_sec=ones * 30000.0,
        page_faults_per_sec=ones * 60000.0,
        cache_faults_per_sec=ones * 80000.0,
        committed_bytes=ones * spec.memory_gb * 2 ** 30 * 0.8,
        disk_read_bytes=ones * total_disk_bw * 0.6,
        disk_write_bytes=ones * total_disk_bw * 0.4,
        disk_busy_frac=ones.copy(),
        net_sent_bytes=ones * spec.nic_max_bps * 0.5,
        net_recv_bytes=ones * spec.nic_max_bps * 0.5,
        interrupts_per_sec=ones * 20000.0,
        dpc_time_frac=ones * 0.05,
    )
