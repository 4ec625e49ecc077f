"""The owcsim benchmark workloads: generated inputs, one op, and its check.

Every workload is a closed loop with one client: the next op starts only
after the previous one returned and was checked. Inputs come from the
workload seed alone; owcsim receives only the generated config documents and
`--seed` values. `run` is the timed region. `check` runs outside it, raises
`OpFailed` on any wrong output and returns the bytes whose sha256 is the
op's digest.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import random
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

import owcsim
import owcsim.channel
import owcsim.cli
import owcsim.geometry
import owcsim.network

ROOM_XY = (5.0, 5.0)
FLOOR_MARGIN = 0.05  # m, keeps generated users off the walls
SNR_DENSE_POINTS_DB = tuple(round(60.0 + 0.05 * i, 2) for i in range(1201))
SUM_RATE_RTOL = 1e-9
GAIN_RTOL = 1e-12
SPOT_CHECK_PAIRS = 256  # (user, mirror) pairs recomputed on the scalar path per op
CLI_TIMEOUT_S = 120


class OpFailed(Exception):
    """An op's output broke the workload's correctness check."""


def floor_positions(rng: random.Random, k: int) -> list[list[float]]:
    lo = FLOOR_MARGIN
    return [
        [rng.uniform(lo, ROOM_XY[0] - lo), rng.uniform(lo, ROOM_XY[1] - lo), 0.0]
        for _ in range(k)
    ]


def setup_rng(seed: int) -> random.Random:
    """Draws for set-up, apart from the op sequence so it stays the same."""
    return random.Random(f"{seed}:setup")


def require_rates(rates, what: str) -> None:
    for rate in rates:
        if not (math.isfinite(rate) and rate >= 0.0):
            raise OpFailed(f"{what}: rate {rate!r} is not finite and nonnegative")


def run_child(argv: list[str], env: dict) -> tuple[int, float]:
    """Run `argv` to its end: its exit code and its own peak RSS in MB.

    `os.wait4` reaps the child and returns the child's rusage alone, so other
    children of this process (probes, reference passes) do not mix in. A
    timer kills the child if it outlives CLI_TIMEOUT_S.
    """
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


@contextlib.contextmanager
def captured(module, attr: str, into: dict):
    """Record the return value of `module.attr` while the block runs."""
    original = getattr(module, attr)

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        into[attr] = result
        return result

    setattr(module, attr, capture)
    try:
        yield
    finally:
        setattr(module, attr, original)


class Paper:
    """`sweep-snr` then `sweep-users` on the default config, as a reader runs
    them to reproduce Fig 2 and Fig 3: each in a fresh interpreter.

    With `in_process` the two commands go through `owcsim.cli.run_command`
    in this interpreter instead; the traced run uses that to attribute time.
    `in_child` tells the harness which host-speed reference fits the op.
    `peak_rss_mb` is the largest peak RSS of any CLI child run so far.
    """

    name = "paper"
    FIG2_ROWS = 39  # 13 SNR points x 3 variants
    FIG3_ROWS = 16  # 8 user counts x 2 variants

    def __init__(self, seed: int, work_dir: Path, src_dir: Path, in_process: bool = False):
        self.seed = seed
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        self.env = dict(os.environ, PYTHONPATH=str(src_dir))
        self.in_child = not in_process
        self.peak_rss_mb = 0.0

    def setup_document(self) -> dict:
        return {"seed": setup_rng(self.seed).randrange(2**31)}

    def next_input(self) -> tuple[int, int]:
        return self.rng.randrange(2**31), self.rng.randrange(2**31)

    def run(self, seeds: tuple[int, int]) -> list[int]:
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)
        codes = []
        for command, seed in zip(("sweep-snr", "sweep-users"), seeds):
            if not self.in_child:
                with contextlib.redirect_stdout(io.StringIO()):
                    codes.append(
                        owcsim.cli.run_command(command, out_dir=str(self.work_dir), seed=seed)
                    )
            else:
                code, rss_mb = run_child(
                    [sys.executable, "-m", "owcsim", command, "--seed", str(seed),
                     "--out", str(self.work_dir)],
                    self.env,
                )
                self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
                codes.append(code)
                if code != 0:
                    break
        return codes

    def check(self, seeds: tuple[int, int], codes: list[int]) -> bytes:
        if codes != [0, 0]:
            raise OpFailed(f"paper: exit codes {codes}, expected [0, 0]")
        for filename, rows in (("fig2.csv", self.FIG2_ROWS), ("fig3.csv", self.FIG3_ROWS)):
            try:
                table = owcsim.read_result_csv(self.work_dir / filename)
            except (OSError, ValueError) as exc:
                raise OpFailed(f"paper: {filename} does not parse: {exc}") from exc
            if len(table.rows) != rows:
                raise OpFailed(f"paper: {filename} has {len(table.rows)} rows, expected {rows}")
            for row in table.rows:
                require_rates((row.sum_rate_bps,) + row.user_rates_bps, f"paper: {filename}")
                if not math.isclose(
                    row.sum_rate_bps, math.fsum(row.user_rates_bps), rel_tol=SUM_RATE_RTOL
                ):
                    raise OpFailed(
                        f"paper: {filename} row {row.variant}@{row.sweep_var}: sum_rate_bps "
                        f"{row.sum_rate_bps!r} != sum of user rates"
                    )
        return b"".join(
            path.name.encode() + b"\0" + path.read_bytes()
            for path in sorted(self.work_dir.iterdir())
        )


class WallScale:
    """`evaluate_scenario` on a 30x30 wall with 16 generated floor users."""

    name = "wall-scale"
    in_child = False

    def __init__(self, seed: int, grid_m: int = 30, users: int = 16):
        self.seed = seed
        self.rng = random.Random(seed)
        self.grid_m = grid_m
        self.users = users

    def setup_document(self) -> dict:
        return self.document(floor_positions(setup_rng(self.seed), self.users))

    def document(self, positions: list[list[float]]) -> dict:
        return {
            "irs": {"grid_m": self.grid_m},
            "users": {"k": self.users, "positions": positions},
        }

    def next_input(self) -> tuple[dict, int]:
        return self.document(floor_positions(self.rng, self.users)), self.rng.randrange(2**31)

    def run(self, inp: tuple[dict, int]) -> tuple:
        seen: dict = {}
        scenario = owcsim.parse_config(inp[0])[0]
        with captured(owcsim.network, "irs_gain_matrix", seen), captured(
            owcsim.network, "assign_mirrors", seen
        ):
            results = owcsim.evaluate_scenario(scenario)
        return scenario, results, seen.get("irs_gain_matrix"), seen.get("assign_mirrors")

    def check(self, inp: tuple[dict, int], out: tuple) -> bytes:
        scenario, results, gains, assignment = out
        k, mirrors = len(scenario.users), len(scenario.irs.elements)
        if len(results) != k:
            raise OpFailed(f"wall-scale: {len(results)} results for {k} users")
        require_rates([r.rate for r in results], "wall-scale")
        if gains is None or len(gains) != k or any(len(row) != mirrors for row in gains):
            raise OpFailed("wall-scale: gain matrix missing or not users x mirrors")
        if assignment is None or len(assignment.per_user) != k:
            raise OpFailed("wall-scale: assignment missing or not one entry per user")
        taken = [m for per_user in assignment.per_user for m in per_user]
        if len(set(taken)) != len(taken) or any(not 0 <= m < mirrors for m in taken):
            raise OpFailed("wall-scale: assignment is not disjoint over the wall")
        for user, per_user in enumerate(assignment.per_user):
            if any(gains[user][m] <= 0.0 for m in per_user):
                raise OpFailed(f"wall-scale: user {user} holds a zero-gain mirror")
        self.spot_check(scenario, gains, random.Random(inp[1]))
        return repr(([r.rate for r in results], assignment.per_user)).encode()

    def spot_check(self, scenario, gains, rng: random.Random) -> None:
        """Recompute sampled pairs on the scalar path and compare."""
        k, mirrors = len(scenario.users), len(scenario.irs.elements)
        pairs = rng.sample(range(k * mirrors), min(SPOT_CHECK_PAIRS, k * mirrors))
        branch_positions = scenario.adt.branch_positions()
        serving: dict[int, object] = {}
        for pair in pairs:
            user_index, mirror_index = divmod(pair, mirrors)
            if user_index not in serving:
                branch = owcsim.network.serving_branch_index(scenario, user_index)
                serving[user_index] = branch_positions[branch]
            expected = scalar_pair_gain(
                scenario, serving[user_index], user_index, mirror_index
            )
            got = gains[user_index][mirror_index]
            if expected == 0.0 or got == 0.0:
                ok = expected == got
            else:
                ok = abs(got - expected) <= GAIN_RTOL * abs(expected)
            if not ok:
                raise OpFailed(
                    f"wall-scale: gain ({user_index}, {mirror_index}) is {got!r}, "
                    f"scalar path gives {expected!r}"
                )


def scalar_pair_gain(scenario, branch_pos, user_index: int, mirror_index: int) -> float:
    """Reference gain of one (user, mirror) pair: steer, then `irs_gain`."""
    user = scenario.users[user_index]
    mirror = scenario.irs.elements[mirror_index]
    try:
        normal = owcsim.geometry.steer_mirror(branch_pos, mirror.center, user.position)
    except owcsim.GeometryError:
        return 0.0
    beam = owcsim.GaussianBeam(
        waist_w0=scenario.adt.beam_waist,
        wavelength=scenario.adt.beam_wavelength,
        power_pt=1.0,
        origin=branch_pos,
        axis=(mirror.center - branch_pos).normalized(),
    )
    gain, _ = owcsim.channel.irs_gain(
        branch_pos,
        dataclasses.replace(mirror, normal=normal),
        user.position,
        user.branches,
        beam,
    )
    return gain


class SnrDense:
    """`sweep_snr` without mirrors: 64 generated users at 1201 SNR points."""

    name = "snr-dense"
    in_child = False

    def __init__(self, seed: int, users: int = 64, points_db=SNR_DENSE_POINTS_DB):
        self.seed = seed
        self.rng = random.Random(seed)
        self.users = users
        self.points_db = tuple(points_db)

    def setup_document(self) -> dict:
        return self.document(floor_positions(setup_rng(self.seed), self.users))

    def document(self, positions: list[list[float]]) -> dict:
        return {"irs": {"enabled": False}, "users": {"k": self.users, "positions": positions}}

    def next_input(self) -> dict:
        return self.document(floor_positions(self.rng, self.users))

    def run(self, document: dict):
        scenario = owcsim.parse_config(document)[0]
        return owcsim.sweep_snr(scenario, self.points_db, variants=("none",))

    def check(self, document: dict, table) -> bytes:
        if len(table.rows) != len(self.points_db):
            raise OpFailed(
                f"snr-dense: {len(table.rows)} rows, expected {len(self.points_db)}"
            )
        if [row.sweep_var for row in table.rows] != sorted(self.points_db):
            raise OpFailed("snr-dense: rows do not follow the requested SNR points")
        rates = np.array([row.user_rates_bps for row in table.rows], dtype=float)
        if rates.shape != (len(self.points_db), self.users):
            raise OpFailed(f"snr-dense: rate table has shape {rates.shape}")
        if not np.all(np.isfinite(rates) & (rates >= 0.0)):
            raise OpFailed("snr-dense: a rate is not finite and nonnegative")
        # SNR grows as P^2 / (a + bP + cP^2), so no user's rate may fall.
        falling = np.argwhere(np.diff(rates, axis=0) < 0.0)
        if len(falling):
            step, user = falling[0]
            raise OpFailed(f"snr-dense: user {user} rate falls after point {step}")
        return rates.tobytes()
