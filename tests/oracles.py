"""Independent brute-force oracles used to cross-check the library.

Everything here recomputes scores from first principles with naive
enumeration (explicit position loops, list.count) and stays deliberately
ignorant of the library's counting machinery.  Final formulas follow the
same operation order as their definitions so exact float comparison is
meaningful where tests ask for it.
"""

from __future__ import annotations

import math
import unicodedata


def oracle_tokenize(text):
    """Punctuation-split tokens by one pass over the characters.

    Whitespace ends a token; each punctuation character (Unicode category
    P*) is a token of its own.
    """
    tokens = []
    current = []
    for ch in text:
        if ch.isspace():
            if current:
                tokens.append("".join(current))
                current = []
        elif unicodedata.category(ch).startswith("P"):
            if current:
                tokens.append("".join(current))
                current = []
            tokens.append(ch)
        else:
            current.append(ch)
    if current:
        tokens.append("".join(current))
    return tokens


def list_ngrams(tokens, n):
    grams = []
    for i in range(len(tokens)):
        if i + n <= len(tokens):
            grams.append(tuple(tokens[i : i + n]))
    return grams


def oracle_bleu(hyp, refs, max_order=4, smoothing="none", epsilon=0.1):
    """Sentence BLEU by naive enumeration.

    Orders the hypothesis cannot populate are skipped; the brevity
    reference length is the closest one (shorter wins ties).
    """
    ref_len = None
    for ref in refs:
        if ref_len is None:
            ref_len = len(ref)
        elif abs(len(ref) - len(hyp)) < abs(ref_len - len(hyp)):
            ref_len = len(ref)
        elif abs(len(ref) - len(hyp)) == abs(ref_len - len(hyp)) and len(ref) < ref_len:
            ref_len = len(ref)
    if len(hyp) == 0:
        return 100.0 if ref_len == 0 else 0.0
    log_sum = 0.0
    n_included = 0
    saw_zero = False
    for n in range(1, max_order + 1):
        hyp_grams = list_ngrams(hyp, n)
        total = len(hyp_grams)
        if total == 0:
            continue
        matched = 0
        for gram in set(hyp_grams):
            in_refs = 0
            for ref in refs:
                in_refs = max(in_refs, list_ngrams(ref, n).count(gram))
            matched += min(hyp_grams.count(gram), in_refs)
        if smoothing == "add-k":
            p = (matched + epsilon) / (total + epsilon)
        else:
            p = matched / total
        n_included += 1
        if p == 0.0:
            saw_zero = True
        else:
            log_sum += math.log(p)
    bp = 1.0 if len(hyp) >= ref_len else math.exp(1.0 - ref_len / len(hyp))
    if saw_zero or n_included == 0:
        return 0.0
    return min(100.0 * bp * math.exp(log_sum / n_included), 100.0)


def oracle_corpus_bleu(hyps, refs, max_order=4, smoothing="none", epsilon=0.1):
    """Corpus BLEU: pool counts and lengths first, then score once."""
    matched_by_order = [0] * max_order
    total_by_order = [0] * max_order
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_order + 1):
            hyp_grams = list_ngrams(hyp, n)
            total_by_order[n - 1] += len(hyp_grams)
            for gram in set(hyp_grams):
                matched_by_order[n - 1] += min(
                    hyp_grams.count(gram), list_ngrams(ref, n).count(gram)
                )
    if hyp_len == 0:
        return 100.0 if ref_len == 0 else 0.0
    log_sum = 0.0
    n_included = 0
    saw_zero = False
    for n in range(max_order):
        if total_by_order[n] == 0:
            continue
        if smoothing == "add-k":
            p = (matched_by_order[n] + epsilon) / (total_by_order[n] + epsilon)
        else:
            p = matched_by_order[n] / total_by_order[n]
        n_included += 1
        if p == 0.0:
            saw_zero = True
        else:
            log_sum += math.log(p)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    if saw_zero or n_included == 0:
        return 0.0
    return min(100.0 * bp * math.exp(log_sum / n_included), 100.0)


def _chars(segment):
    return [ch for ch in segment if not ch.isspace()]


def _char_gram_counts(chars, n):
    counts = {}
    for i in range(len(chars)):
        if i + n <= len(chars):
            gram = "".join(chars[i : i + n])
            counts[gram] = counts.get(gram, 0) + 1
    return counts


def _chrf_from_pooled(pooled, beta):
    f_sum = 0.0
    n_included = 0
    for hyp_total, ref_total, matched in pooled:
        if hyp_total == 0 and ref_total == 0:
            continue
        p = matched / hyp_total if hyp_total else 0.0
        r = matched / ref_total if ref_total else 0.0
        if p + r == 0.0:
            f = 0.0
        else:
            f = (1 + beta * beta) * p * r / (beta * beta * p + r)
        f_sum += f
        n_included += 1
    if n_included == 0:
        return 100.0
    return min(100.0 * f_sum / n_included, 100.0)


def oracle_chrf_counts(hyp, ref, char_order=6):
    hyp_chars = _chars(hyp)
    ref_chars = _chars(ref)
    pooled = []
    for n in range(1, char_order + 1):
        hyp_counts = _char_gram_counts(hyp_chars, n)
        ref_counts = _char_gram_counts(ref_chars, n)
        matched = 0
        for gram, count in hyp_counts.items():
            if gram in ref_counts:
                matched += min(count, ref_counts[gram])
        pooled.append(
            (sum(hyp_counts.values()), sum(ref_counts.values()), matched)
        )
    return pooled


def oracle_chrf(hyp, ref, char_order=6, beta=2.0):
    """Sentence chrF by naive character n-gram enumeration."""
    return _chrf_from_pooled(oracle_chrf_counts(hyp, ref, char_order), beta)


def oracle_corpus_chrf(hyps, refs, char_order=6, beta=2.0):
    pooled = [[0, 0, 0] for _ in range(char_order)]
    for hyp, ref in zip(hyps, refs):
        for n, (h, r, m) in enumerate(oracle_chrf_counts(hyp, ref, char_order)):
            pooled[n][0] += h
            pooled[n][1] += r
            pooled[n][2] += m
    return _chrf_from_pooled([tuple(row) for row in pooled], beta)


def oracle_mbr_row(candidates, utility, include_self=True):
    """Best candidate by recomputing every pairwise utility naively.

    Row means accumulate in reference-index order; the winner is the
    first index attaining the maximum mean.
    """
    n = len(candidates)
    means = []
    for c in range(n):
        total = 0.0
        count = 0
        for r in range(n):
            if not include_self and r == c:
                continue
            total += utility(candidates[c], candidates[r])
            count += 1
        means.append(total / count)
    best = 0
    for c in range(1, n):
        if means[c] > means[best]:
            best = c
    return best, means


def oracle_average(stores_values):
    """Per-element mean over a list of dicts name -> flat float list."""
    out = {}
    for name in stores_values[0]:
        length = len(stores_values[0][name])
        averaged = []
        for i in range(length):
            acc = 0.0
            for values in stores_values:
                acc += values[name][i]
            averaged.append(acc / len(stores_values))
        out[name] = averaged
    return out


def oracle_lora_delta(a_rows, b_rows, alpha, rank):
    """(alpha/rank) * B @ A by triple loop; B is d x rank, A is rank x k."""
    d = len(b_rows)
    k = len(a_rows[0])
    delta = [[0.0] * k for _ in range(d)]
    for i in range(d):
        for j in range(k):
            acc = 0.0
            for t in range(rank):
                acc += b_rows[i][t] * a_rows[t][j]
            delta[i][j] = alpha / rank * acc
    return delta


def oracle_rdrop(p, q):
    """0.5 * (KL(p||q) + KL(q||p)) evaluated directly from the ratios."""
    forward = 0.0
    for pi, qi in zip(p, q):
        if pi > 0.0:
            forward += pi * math.log(pi / qi)
    backward = 0.0
    for pi, qi in zip(p, q):
        if qi > 0.0:
            backward += qi * math.log(qi / pi)
    return 0.5 * (forward + backward)
