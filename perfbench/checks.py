"""Correctness checks made outside mpfsim.

Nothing here imports mpfsim.  The models, the Suzuki recursion, the
Childs-Wiebe and closed-form weights, the scalar series, the resolution and
zeta are recomputed from their definitions, with ``scipy.linalg.expm`` for
every exponential and exact rational arithmetic where a linear system or a
series is involved.  Each check returns ``(name, ok, detail)``.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from fractions import Fraction

import numpy as np
from scipy.linalg import expm, svdvals

from workloads import SAMPLE_DELTA, SAMPLE_TAU, SIZES

# Additive allowance of the distance checks: spectral distances of products
# of thousands of double-precision factors are only trustworthy to ~1e-12.
DISTANCE_NOISE_FLOOR = 1e-11
SERIES_TOL = 1e-9
RTOL = 1e-9
HOEFFDING_FAILURE = 1e-9
CHECK_POINTS = 3

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def check(name: str, ok: bool, detail: str = "") -> tuple[str, bool, str]:
    return name, bool(ok), detail


# ---------------------------------------------------------------------------
# Models and propagators.


def pauli(labels: str) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for label in labels:
        out = np.kron(out, PAULI[label])
    return out


def syk_terms(N: int, seed: int) -> list[np.ndarray]:
    """SYK terms (J/4) g_p g_q g_r g_s over p<q<r<s, J ~ Normal(0, 6/N^3).

    Majoranas by Jordan-Wigner: g_2j = Z..Z X_j, g_2j+1 = Z..Z Y_j, qubit 0
    leftmost; one coupling drawn per ordered tuple from default_rng(seed).
    """
    n = N // 2
    gammas = [pauli("Z" * (p // 2) + "XY"[p % 2] + "I" * (n - p // 2 - 1)) for p in range(N)]
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(6.0 / N**3)
    terms = []
    for p, q, r, s in itertools.combinations(range(N), 4):
        J = rng.normal(0.0, sigma)
        terms.append(0.25 * J * (gammas[p] @ gammas[q] @ gammas[r] @ gammas[s]))
    return terms


def free_fermion_terms(n: int) -> list[np.ndarray]:
    """Ring hopping split into bonds (i, i+1) with even i and with odd i."""
    even = np.zeros((n, n), dtype=complex)
    odd = np.zeros((n, n), dtype=complex)
    for i in range(n):
        part = even if i % 2 == 0 else odd
        j = (i + 1) % n
        part[i, j] += 1.0
        part[j, i] += 1.0
    return [even, odd]


def lambda_norm(terms) -> float:
    return float(sum(np.max(np.abs(np.linalg.eigvalsh(h))) for h in terms))


class Suzuki:
    """Order-2chi Suzuki products exp-factor by exp-factor, with memoized expm.

    S2(t) = prod_k e^{-i h_k t/2} prod_k(reversed) e^{-i h_k t/2}, term 0
    leftmost; S_2c(t) = S_2c-2(s t)^2 S_2c-2((1-4s) t) S_2c-2(s t)^2 with
    s = 1 / (4 - 4^(1/(2c-1))).
    """

    def __init__(self, terms, chi: int):
        self.terms = terms
        self.chi = chi
        self.dim = terms[0].shape[0]
        self._expm: dict[tuple[int, float], np.ndarray] = {}

    def _factor(self, k: int, theta: float) -> np.ndarray:
        key = (k, theta)
        if key not in self._expm:
            self._expm[key] = expm(-1j * theta * self.terms[k])
        return self._expm[key]

    def s2(self, t: float) -> np.ndarray:
        half = [self._factor(k, t / 2) for k in range(len(self.terms))]
        out = np.eye(self.dim, dtype=complex)
        for f in half + half[::-1]:
            out = out @ f
        return out

    def __call__(self, t: float, chi: int | None = None) -> np.ndarray:
        chi = self.chi if chi is None else chi
        if chi == 1:
            return self.s2(t)
        s = 1.0 / (4.0 - 4.0 ** (1.0 / (2 * chi - 1)))
        outer = self(s * t, chi - 1)
        return outer @ outer @ self((1.0 - 4.0 * s) * t, chi - 1) @ outer @ outer


def exact_propagator(terms, t: float) -> np.ndarray:
    return expm(-1j * t * sum(terms))


# ---------------------------------------------------------------------------
# Exact rational weights.


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gauss-Jordan elimination over the rationals."""
    n = len(rhs)
    a = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if a[i][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col] / a[col][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


def node_weights(b, nu) -> list[Fraction]:
    """C with sum_q C_q b_q^j = nu_j for j = 0..m-1, solved exactly."""
    b = [Fraction(x) for x in b]
    rows = [[x**j for x in b] for j in range(len(b))]
    return solve_exact(rows, [Fraction(x) for x in nu])


def cw_weights(chi: int, K: int) -> tuple[list[int], list[Fraction]]:
    """Childs-Wiebe weights for l_q = 1..K+1: sum C = 1 and, for j < K,
    sum C_q l_q^-(2chi+2j) = 0 (cancels the leading odd error orders)."""
    ells = list(range(1, K + 2))
    rows = [[Fraction(1)] * (K + 1)]
    rows += [[Fraction(1, l ** (2 * chi + 2 * j)) for l in ells] for j in range(K)]
    return ells, solve_exact(rows, [Fraction(1)] + [Fraction(0)] * K)


def closedform_targets(chi: int, R: int) -> list[list[Fraction]]:
    """Target moments nu of the closed-form blocks, shift block first.

    The shift block's series is x^2chi/(2chi)!; block 1 covers orders
    0..2chi of e^x and block n >= 2, after n-1 shifts, orders
    2chi(n-1)+1..2chi n: nu_k = k! (2chi)!^(n-1) / (2chi(n-1)+k)!.
    """
    m = 2 * chi * R + 1
    f = math.factorial
    out = [[Fraction(int(k == 2 * chi)) for k in range(m)]]
    out.append([Fraction(int(k <= 2 * chi)) for k in range(m)])
    for n in range(2, R + 1):
        out.append(
            [
                Fraction(f(k) * f(2 * chi) ** (n - 1), f(2 * chi * (n - 1) + k)) if 1 <= k <= 2 * chi else Fraction(0)
                for k in range(m)
            ]
        )
    return out


def default_nodes(chi: int, R: int) -> list[float]:
    """The documented initial nodes 1, -1, 2, -2, ... of length 2chiR+1."""
    return [float((k // 2 + 1) * (1 if k % 2 == 0 else -1)) for k in range(2 * chi * R + 1)]


# ---------------------------------------------------------------------------
# Formula quantities from (b, C) blocks.


def block_series(b, C, order: int) -> list[Fraction]:
    """Exact coefficients of sum_q C_q exp(b_q x) up to x^order."""
    b = [Fraction(x) for x in b]
    C = [Fraction(x) for x in C]
    return [sum(c * x**k for x, c in zip(b, C)) / math.factorial(k) for k in range(order + 1)]


def series_mul(a, b, order: int) -> list[Fraction]:
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(order + 1)]


def formula_series(kind: str, blocks, order: int) -> list[Fraction]:
    """Scalar series of a matching (product) or closed-form (shift-power sum) formula."""
    series = [block_series(b, C, order) for b, C in blocks]
    one = [Fraction(int(k == 0)) for k in range(order + 1)]
    if kind == "matching":
        out = one
        for s in series:
            out = series_mul(out, s, order)
        return out
    out = [Fraction(0)] * (order + 1)
    shift_pow = one
    for s in series[1:]:
        out = [x + y for x, y in zip(out, series_mul(shift_pow, s, order))]
        shift_pow = series_mul(shift_pow, series[0], order)
    return out


def _one_norm(C) -> float:
    return float(sum(abs(Fraction(c)) for c in C))


def resolution(kind: str, blocks) -> float:
    norms = [_one_norm(C) for _, C in blocks]
    if kind == "matching":
        return float(np.prod(norms))
    return float(sum(norms[0] ** (r - 1) * norms[r] for r in range(1, len(norms))))


def _combination_sum(chosen, n: int) -> float:
    """Sum over one entry per chosen block of prod |C| * (sum |b|)^n, enumerated."""
    weight = np.ones(())
    scale = np.zeros(())
    for b, C in chosen:
        weight = np.multiply.outer(weight, np.abs(np.asarray(C, float)))
        scale = np.add.outer(scale, np.abs(np.asarray(b, float)))
    return float(np.sum(weight * scale**n))


def zeta(kind: str, chi: int, R: int, blocks) -> float:
    n = 2 * chi * R + 1
    if kind == "matching":
        return _combination_sum(blocks, n)
    return sum(_combination_sum([blocks[0]] * (r - 1) + [blocks[r]], n) for r in range(1, R + 1))


def bound(chi: int, R: int, zeta_value: float, tau: float) -> float:
    """(1 + zeta g^n) tau^n / n!, n = 2chiR+1, g = (4chi/5)(5/3)^(chi-1)."""
    n = 2 * chi * R + 1
    g = 0.8 * chi * (5.0 / 3.0) ** (chi - 1)
    return (1.0 + zeta_value * g**n) * tau**n / math.factorial(n)


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Parsing the program's outputs.


def parse_kv(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        if "=" in line and not line.lstrip().startswith("#"):
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def parse_distance_csv(text: str) -> dict[str, list[tuple[float, float, float]]]:
    """method -> [(tau, distance, bound)] in grid order."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "tau,method,value,kind":
        raise ValueError("distance CSV has no header")
    dist, bnd = {}, {}
    for line in lines[1:]:
        tau, method, value, kind = line.split(",")
        (dist if kind == "distance" else bnd).setdefault(method, []).append((float(tau), float(value)))
    return {
        m: [(tau, d, b) for (tau, d), (_, b) in zip(dist[m], bnd.get(m, []))]
        for m in dist
    }


def spec_vectors(spec: dict[str, str], kind: str, name: str) -> list[list[float]]:
    """Per-block vectors ``name`` (b, c or nu) of a spec file, shift block first for cf."""
    first = 0 if kind == "cf" else 1
    return [[float(x) for x in spec[f"{name}{i}"].split()] for i in range(first, int(spec["R"]) + 1)]


def node_hash(result: dict[str, str]) -> str:
    """sha256 of the optimized node vectors as written (17 significant digits)."""
    keys = sorted(k for k in result if k[:1] == "b" and k[1:].isdigit())
    text = "\n".join(f"{k} = {result[k]}" for k in keys)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Per-workload checks.  ``size`` selects the input sizes of workloads.SIZES.


def check_points(n_points: int, seed: int) -> list[int]:
    """Grid indices recomputed independently, drawn from the run's seed."""
    rng = np.random.default_rng(seed)
    return sorted(int(i) for i in rng.choice(n_points, size=min(CHECK_POINTS, n_points), replace=False))


class DistanceReference:
    """Independent exact, ts and cw operators at the checked grid points."""

    def __init__(self, workload: str, seed: int, size: str):
        z = SIZES[size]
        self.chi, self.reps, self.points = z["chi"], z["reps"], z["tau_points"]
        if workload == "distance-syk":
            terms = syk_terms(z["syk_n"], seed)
        else:
            terms = free_fermion_terms(z["ff_n"])
        self.terms = terms
        self.lam = lambda_norm(terms)
        self.suzuki = Suzuki(terms, self.chi)
        self.ells, self.cw = cw_weights(self.chi, self.reps - 1)
        self.indices = check_points(self.points, seed)
        self._memo: dict[float, dict[str, float]] = {}

    def distances(self, tau: float) -> dict[str, float]:
        if tau not in self._memo:
            t = tau / self.lam
            exact = exact_propagator(self.terms, t)
            powers = {l: np.linalg.matrix_power(self.suzuki(t / l), l) for l in set(self.ells) | {self.reps}}
            cw = sum(float(c) * powers[l] for c, l in zip(self.cw, self.ells))
            self._memo[tau] = {
                "ts": float(svdvals(exact - powers[self.reps])[0]),
                "cw": float(svdvals(exact - cw)[0]),
            }
        return self._memo[tau]


def distance_checks(rc: int, csv_text: str | None, ref: DistanceReference) -> list:
    out = [check("exit code", rc == 0, f"rc={rc}")]
    if rc != 0 or csv_text is None:
        return out
    curves = parse_distance_csv(csv_text)
    shape_ok = sorted(curves) == sorted(["ts", "cw", "matching", "cf"]) and all(
        len(c) == ref.points for c in curves.values()
    )
    out.append(check("csv shape", shape_ok, f"methods={sorted(curves)}"))
    if not shape_ok:
        return out
    for method, rows in curves.items():
        worst = max(d - b for _, d, b in rows)
        out.append(check(f"{method} distance <= bound + floor", worst <= DISTANCE_NOISE_FLOOR, f"max(d-b)={worst:.3e}"))
    for i in ref.indices:
        tau = curves["ts"][i][0]
        want = ref.distances(tau)
        for method in ("ts", "cw"):
            got = curves[method][i][1]
            err = abs(got - want[method])
            out.append(check(f"{method} distance at tau={tau:.4g}", err <= DISTANCE_NOISE_FLOOR, f"|csv-ref|={err:.3e}"))
    return out


def optimize_checks(kind: str, rc: int, spec_text: str | None, result_text: str | None, size: str) -> list:
    out = [check(f"{kind} exit code", rc == 0, f"rc={rc}")]
    if rc != 0 or spec_text is None or result_text is None:
        return out
    z = SIZES[size]
    chi, R = z["chi"], z["reps"]
    spec, result = parse_kv(spec_text), parse_kv(result_text)
    blocks = list(zip(spec_vectors(spec, kind, "b"), spec_vectors(spec, kind, "c")))
    order = 2 * chi * R
    series = formula_series(kind, blocks, order)
    worst = max(abs(float(c - Fraction(1, math.factorial(k)))) for k, c in enumerate(series))
    out.append(check(f"{kind} scalar series = 1/k!", worst <= SERIES_TOL, f"max|c_k-1/k!|={worst:.3e}"))
    xi = resolution(kind, blocks)
    out.append(check(f"{kind} Xi = block 1-norms", close(xi, float(spec["xi"]), 1e-12) and close(xi, float(result["xi"]), 1e-12),
                     f"Xi={xi!r} spec={spec['xi']} result={result['xi']}"))
    z_brute = zeta(kind, chi, R, blocks)
    out.append(check(f"{kind} zeta = brute-force sum", close(z_brute, float(result["zeta"])), f"zeta={z_brute!r} result={result['zeta']}"))
    b_max = chi * R + 1
    reach = max(abs(x) for b, _ in blocks for x in b)
    out.append(check(f"{kind} nodes inside box", reach <= b_max, f"max|b|={reach!r} box={b_max}"))
    p, tau_ref = float(result["p"]), float(result["tau_ref"])
    weighted = result["loss_kind"] == "bound_times_xi_pow"

    def loss_of(bl) -> float:
        value = resolution(kind, bl) ** p
        return bound(chi, R, zeta(kind, chi, R, bl), tau_ref) * value if weighted else value

    nodes = default_nodes(chi, R)
    initial = loss_of([(nodes, [float(c) for c in node_weights(nodes, nu)]) for nu in spec_vectors(spec, kind, "nu")])
    final = float(result["loss_value"])
    out.append(check(f"{kind} loss = recomputed", close(final, loss_of(blocks), 1e-8), f"loss={final!r}"))
    out.append(check(f"{kind} loss <= initial-node loss", final <= initial, f"final={final:.6g} initial={initial:.6g}"))
    return out


class SampleReference:
    """Independent exact expectation, resolution and mixture of the sample workload."""

    def __init__(self, seed: int, size: str):
        z = SIZES[size]
        chi, R = z["chi"], z["reps"]
        terms = syk_terms(z["syk_n"], seed)
        self.epsilon = z["epsilon"]
        self.t = SAMPLE_TAU / lambda_norm(terms)
        obs = pauli(z["observable"])
        psi = np.zeros(terms[0].shape[0], dtype=complex)
        psi[0] = 1.0
        u = exact_propagator(terms, self.t) @ psi
        self.reference = float(np.vdot(u, obs @ u).real)
        nodes = default_nodes(chi, R)
        weights = [node_weights(nodes, nu) for nu in closedform_targets(chi, R)]
        self.xi = resolution("cf", [(nodes, C) for C in weights])
        suzuki = Suzuki(terms, chi)
        mats = {b: suzuki(b * self.t) for b in set(nodes)}
        blocks = [sum(float(c) * mats[b] for b, c in zip(nodes, C)) for C in weights]
        mpf, shift_pow = 0, np.eye(len(psi), dtype=complex)
        for blk in blocks[1:]:
            mpf = mpf + shift_pow @ blk
            shift_pow = shift_pow @ blocks[0]
        v = mpf @ psi
        self.mixture = float(np.vdot(v, obs @ v).real)


def parse_sample(stdout: str) -> dict[str, float]:
    """The first ``key = number`` of each printed quantity."""
    values = {}
    for key, value in re.findall(r"(\w+)\s*=\s*([-+]?[0-9][0-9.eE+-]*)", stdout):
        values.setdefault(key, float(value))
    return values


def sample_checks(rc: int, stdout: str, ref: SampleReference) -> list:
    out = [check("exit code", rc == 0, f"rc={rc}")]
    if rc != 0:
        return out
    v = parse_sample(stdout)
    missing = {"N", "Xi", "estimate", "reference", "mixture"} - set(v)
    out.append(check("output complete", not missing, f"missing={sorted(missing)}"))
    if missing:
        return out
    out.append(check("reference = expm value", abs(v["reference"] - ref.reference) <= 1e-10,
                     f"printed={v['reference']!r} expm={ref.reference!r}"))
    out.append(check("Xi = exact block 1-norms", close(v["Xi"], ref.xi, 1e-10), f"printed={v['Xi']!r} exact={ref.xi!r}"))
    want_n = math.ceil(8.0 * math.log(2.0 / SAMPLE_DELTA) * (v["Xi"] / ref.epsilon) ** 2)
    out.append(check("N = ceil(8 ln(2/delta) (Xi/eps)^2)", int(v["N"]) == want_n, f"N={int(v['N'])} want={want_n}"))
    out.append(check("mixture = independent MPF operator", abs(v["mixture"] - ref.mixture) <= 1e-9,
                     f"printed={v['mixture']!r} ref={ref.mixture!r}"))
    # sign * outcome lies in [-1, 1]; Hoeffding: P(|mean - mu| >= a) <= 2 exp(-N a^2 / 2).
    half = ref.xi**2 * math.sqrt(2.0 * math.log(2.0 / HOEFFDING_FAILURE) / v["N"])
    err = abs(v["estimate"] - ref.mixture)
    out.append(check("estimate within Hoeffding interval", err <= half, f"|est-mixture|={err:.4g} half-width={half:.4g}"))
    return out
