"""Independent references that the tests compare library code against.

None of these is on a library path. Each is the slow, textbook form of
something the library computes another way:

* ``vandermonde_det``: the closed-form Vandermonde product, against the
  eliminations ``matrix.det_enc`` and ``matrix.det_stack``;
* ``expand_shifted_power`` and ``_shifted_power_enc``: (x - a)^m by the
  binomial theorem, against the base words of ``deepholes._family_bases``;
* ``mds_generator_check``: the all-minors MDS test of one generator by a
  ``column_minors`` walk, which eliminates every k-column grid of the
  generator itself, against ``codes.mds_checks`` and the frame minor tables;
* ``mds_extension_zeros``: the first zero minor of each word's MDS extension,
  expanded along the word row a run of subsets at a time, against the scalar
  ``deepholes.is_deep_hole_mds_extension`` and bit 2 of the family bits that
  ``codes.family_verdicts`` reads;
* ``scored_rows_reference``: a sweep's family rows scored word by word, every
  sampled word through the agreement oracle and the MDS-extension scan, and
  every criterion by its scalar scan, against ``verify._scored_rows``, which
  scores each row's base word.
"""

import math

import numpy as np

import gprs.codes as codes_module
from gprs import matrix, verify
from gprs.deepholes import _family_bases, family_words, thm14_criterion, thm15_criterion
from gprs.galois import FieldElement, FiniteField, lucas_binom
from gprs.matrix import Matrix, MdsCheckResult, det_stack, subset_runs
from gprs.polynomial import Polynomial


def vandermonde_det(points) -> FieldElement:
    """prod_{i<j} (points[j] - points[i]) in the field of the first FieldElement."""
    pts = list(points)
    if not pts:
        raise ValueError("vandermonde_det needs at least one point")
    field = next((p.field for p in pts if isinstance(p, FieldElement)), None)
    if field is None:
        raise ValueError("no FieldElement among the inputs names the field")
    encs = field.encodings(pts)
    out = 1
    for i in range(len(encs)):
        for j in range(i + 1, len(encs)):
            out = field.mul_enc(out, field.sub_enc(encs[j], encs[i]))
            if out == 0:
                return field.zero
    return field.element(out)


def expand_shifted_power(field: FiniteField, a, m: int) -> Polynomial:
    """Full expansion of (x - a)^m via the binomial theorem.

    Coefficient of x^i is C(m, i) * (-a)^(m-i), with the binomial reduced
    into the prime subfield by base-p digits.
    """
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    (enc,) = field.encodings((a,))
    return Polynomial(field, _shifted_power_enc(field, enc, m))


def _shifted_power_enc(field: FiniteField, a: int, m: int) -> list[int]:
    neg_a = field.neg_enc(a)
    out = []
    for i in range(m + 1):
        binom = lucas_binom(m, i, field.p)
        out.append(field.mul_enc(binom, field.pow_enc(neg_a, m - i)) if binom else 0)
    return out


def mds_generator_check(g: Matrix, k: int) -> MdsCheckResult:
    """All-minors MDS test: every k columns of g must be independent.

    On failure the witness is the lexicographically first singular
    k-column index tuple.
    """
    if g.nrows != k:
        raise ValueError(f"generator has {g.nrows} rows, expected k = {k}")
    if g.ncols < k:
        raise ValueError("generator needs at least k columns")
    runs = column_minors(g.field, g.row_encodings(), k)
    witness = next((tuple(cols[dets == 0][0].tolist()) for cols, dets in runs if 0 in dets), None)
    return MdsCheckResult(witness is None, witness)


def column_minors(field: FiniteField, rows, size: int):
    """(subsets, dets) for runs of the size-column minors of a grid with ``size`` rows, or of
    each grid of a stack, the subsets in lexicographic order (``subset_runs``)."""
    g = np.array(rows, dtype=np.intp)
    grids = g[..., 0, 0].size
    for _, cols in subset_runs(g.shape[-1], size, 32 * size * size * grids):
        stack = np.moveaxis(g[..., cols], -2, -3)  # (grids..., run, size, size)
        yield cols, det_stack(field, stack.reshape(-1, size, size)).reshape(stack.shape[:-2])


def mds_extension_zeros(codes, words) -> np.ndarray:
    """Per words[r, j] and codes[r], as (rows, words): the rank of the first (k+1)-subset T of
    range(length) in lexicographic order with det[G_T; w_T] = 0, or -1 for none, a deep hole (Dür).

    Up to sign, det[G_T; w_T] = sum_j (-1)^j w_(T_j) det G_(T minus T_j): k+1 gathers per run of
    subsets (``subset_runs``) from the k-minor table of each distinct code of a group of rows
    (``codes._minor_tables``), at the ranks of ``matrix._drop_ranks``, until each word of the group
    has a zero. A group is as many rows as fit one run at 8 bytes a k-minor.
    """
    f, n, k = codes[0].field, codes[0].length, codes[0].k
    w = np.asarray(words, dtype=np.intp).reshape(len(codes), -1, n)
    first = np.full(w.shape[:2], -1)
    group = max(1, matrix._RUN_BYTES // (8 * math.comb(n, k)))
    for start in range(0, len(codes), group):
        minors, index = codes_module._minor_tables(codes[start : start + group])
        wr, fr = w[start : start + group], first[start : start + group]
        # a subset's drop ranks and their temporaries; per row a cofactor, per word a point and term
        for a, run in subset_runs(n, k + 1, 8 * (k + 1) * (6 + 2 * (wr.shape[1] + 1) * len(wr))):
            cof = minors[:, matrix._drop_ranks(n, run)]
            cof[..., 1::2] = f.neg_table[cof[..., 1::2]]
            found = (fr < 0) & (zero := codes_module._dot(f, wr[:, :, run], cof[index, None]) == 0).any(axis=2)
            fr[found] = a + zero[found].argmax(axis=1)
            if (fr >= 0).all():
                break
    return first


def scored_rows_reference(specs):
    """``verify._scored_rows`` word by word, as sweeps scored before a base word decided its
    family and before a group found its criterion witnesses: each row's criterion runs its own
    scan (``thm14_criterion`` or ``thm15_criterion``), whose witness ``verify.criterion_verdict``
    makes the verdict that the claim's row function judges. Each sampled word gets
    ``codes.agreement_distances`` and, on thm14 rows, ``mds_extension_zeros`` (both read at call
    time). The oracle column is the last oracle verdict walked; the first word a check rules on
    differently from the row's expectation refutes the row, with the row's miss formatted by that
    word, its distance and its oracle and MDS verdicts as the detail."""
    judged = []
    for claim, code, a_j, draw in specs:
        scan = thm14_criterion(code) if a_j is None else thm15_criterion(code, a_j)
        predicted = verify.criterion_verdict(code, a_j, scan.witness or ())
        claimed, witness, detail, expected = verify._CLAIMS[claim][3](code, a_j, predicted)
        cols = dict(predicted=claimed, witness=verify._encs_str(witness), detail=detail)
        judged.append((claim, code, a_j, draw, expected, cols))
    drawn = [row for row in judged if row[4] is not None]
    if drawn:
        claims, codes, a_js, draws, expected, _ = zip(*drawn)
        draws = np.array(draws)
        bases = np.array([_family_bases([code], "deg_k" if a_j is None else "shifted_qminus2", [a_j])[0]
                          for code, a_j in zip(codes, a_js)])
        words = family_words(codes, bases, draws[..., -1], draws[..., :-1])
        dist = codes_module.agreement_distances(codes, words)
        deep = dist == codes[0].covering_radius("formula")
        checked = deep.copy()
        if rows := [r for r, claim in enumerate(claims) if claim == "thm14"]:
            checked[rows] = mds_extension_zeros([codes[r] for r in rows], words[rows]) < 0
        want = np.array([want for want, _ in expected])[:, None]
        bad = (deep != want) | (checked != want)
        for r, (*_, (_, miss), cols) in enumerate(drawn):
            j = int(bad[r].argmax()) if bad[r].any() else -1
            cols["oracle"] = verify._bool_str(deep[r, j])
            if j >= 0:
                word = codes[r].word(words[r, j].tolist()).to_text()
                cols["detail"] = miss.format(
                    word=word, oracle=cols["oracle"], mds=verify._bool_str(checked[r, j]), distance=dist[r, j])
    return [verify._row(claim, code.field, code.excluded, code.k, -1 if a_j is None else int(a_j),
                        not cols["detail"], **cols) for claim, code, a_j, _, _, cols in judged]
