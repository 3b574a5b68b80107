"""Numeric model-file operations over the TSF tensor container.

TSF is a deliberately tiny self-describing format: the bytes ``TSF1``
and LF, one UTF-8 header line per tensor (``name<TAB>f32<TAB>d0,d1,...``,
each dimension a positive integer in canonical decimal), a blank line,
then the raw little-endian float32 payloads concatenated in header
order.  No padding, no trailing bytes; serialize -> parse -> serialize
is byte-identical.

On top of it: elementwise checkpoint averaging, low-rank adapter merging
(W' = W + (alpha/rank) * B @ A), and the symmetric-KL consistency penalty
used to regularize twin dropout passes.  Averaging and the merge multiply
accumulate in float64 and store float32, which bounds drift without
changing the format.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError, InfiniteDivergenceError, located, validated
from .textio import staged_outputs

TSF_MAGIC = b"TSF1"

DEFAULT_REG_ALPHA = 5.0
EPSILON_FLOOR = 1e-12

LORA_A_SUFFIX = ".lora_A"
LORA_B_SUFFIX = ".lora_B"


class TensorStore:
    """Ordered map from tensor name to a float32 array.

    Names must be unique, non-empty, valid UTF-8 and free of TAB/LF (they
    have to fit in a header line); every value must be finite.
    """

    def __init__(self, entries: Mapping[str, np.ndarray] | None = None):
        self._entries: dict[str, np.ndarray] = {}
        if entries:
            for name, values in entries.items():
                self.add(name, values)

    def add(self, name: str, values: np.ndarray) -> None:
        if name in self._entries:
            raise DataError(f"duplicate tensor name: {name!r}")
        if name == "" or "\t" in name or "\n" in name:
            raise DataError(f"invalid tensor name: {name!r}")
        try:
            name.encode("utf-8")  # the header line is UTF-8
        except UnicodeEncodeError:
            raise DataError(f"tensor name is not valid UTF-8: {name!r}") from None
        arr = np.asarray(values, dtype=np.float32)
        if arr.ndim == 0:
            raise DataError(f"tensor {name!r} must have at least one dimension")
        if any(d <= 0 for d in arr.shape):
            raise DataError(f"tensor {name!r} has non-positive dimension {arr.shape}")
        if not (math.isfinite(arr.min()) and math.isfinite(arr.max())):  # no full-size mask
            raise DataError(f"tensor {name!r} contains non-finite values")
        self._entries[name] = arr

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._entries[name]
        except KeyError:
            raise DataError(f"no tensor named {name!r}") from None

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self) -> Iterable[tuple[str, np.ndarray]]:
        return self._entries.items()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorStore):
            return NotImplemented
        if self.names() != other.names():
            return False
        return all(
            a.shape == other[name].shape and np.array_equal(a, other[name])
            for name, a in self.items()
        )

    def _parts(self) -> Iterator[bytes | np.ndarray]:
        """The container's pieces in order; a payload is an array, read as a buffer, not copied."""
        yield TSF_MAGIC + b"\n"
        for name, arr in self._entries.items():
            dims = ",".join(str(d) for d in arr.shape)
            yield f"{name}\tf32\t{dims}\n".encode("utf-8")
        yield b"\n"
        for arr in self._entries.values():
            yield np.ascontiguousarray(arr, dtype="<f4")

    def serialize(self) -> bytes:
        return b"".join(self._parts())

    @classmethod
    def parse(cls, data: bytes) -> "TensorStore":
        """Parse a container into read-only tensors that are views of ``bytes(data)``.

        ``bytes`` is viewed as it is; any other bytes-like input is copied
        first, so later writes to it never reach the store.
        """
        data = bytes(data)
        if not data.startswith(TSF_MAGIC + b"\n"):
            raise DataError("not a TSF container (bad magic)")
        header_end = data.find(b"\n\n", len(TSF_MAGIC))
        if header_end < 0:
            raise DataError("truncated TSF header (no blank line)")
        header = data[len(TSF_MAGIC) + 1 : header_end]
        body = memoryview(data)[header_end + 2 :]
        store = cls()
        offset = 0
        lines = header.split(b"\n") if header else []
        for raw in lines:
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"undecodable TSF header line: {raw!r}") from exc
            parts = line.split("\t")
            if len(parts) != 3 or parts[1] != "f32":
                raise DataError(f"malformed TSF header line: {line!r}")
            name, _dtype, dims = parts
            # Only the form serialize writes: int() also takes " 2", "02", "1_1" and "\u0661".
            if not re.fullmatch(r"[1-9][0-9]*(?:,[1-9][0-9]*)*", dims):
                raise DataError(f"bad shape in TSF header: {line!r}")
            try:  # int() and str() refuse more digits than sys.get_int_max_str_digits()
                shape = tuple(map(int, dims.split(",")))
                nbytes = math.prod(shape) * 4
                str(nbytes)  # the message below names it
            except ValueError as exc:
                raise DataError(f"bad shape in TSF header: {line!r}") from exc
            chunk = body[offset : offset + nbytes]
            if len(chunk) != nbytes:
                raise DataError(
                    f"TSF payload for {name!r} is short: "
                    f"expected {nbytes} bytes, got {len(chunk)}"
                )
            offset += nbytes
            store.add(name, np.frombuffer(chunk, dtype="<f4").reshape(shape))
        if offset != len(body):
            raise DataError(f"{len(body) - offset} trailing bytes after TSF payload")
        return store

    def save(self, path: str | Path) -> None:
        with staged_outputs([path]) as (out,):
            out.writelines(self._parts())

    @classmethod
    def load(cls, path: str | Path) -> "TensorStore":
        data = Path(path).read_bytes()
        with located(path):
            return cls.parse(data)


def average_checkpoints(stores: Iterable[TensorStore]) -> TensorStore:
    """Elementwise mean of any iterable of stores, added one at a time; order follows store 1."""
    sums: dict[str, np.ndarray] = {}
    k = 0
    for store in stores:
        k += 1
        if k == 1:  # seed from store 1, not zeros: 0.0 + -0.0 would drop the sign
            sums = {name: arr.astype(np.float64) for name, arr in store.items()}
        elif set(store.names()) != sums.keys():
            offending = min(sums.keys() ^ set(store.names()))
            raise DataError(f"store {k} does not match store 1 on tensor {offending!r}")
        else:
            for name, acc in sums.items():
                if store[name].shape != acc.shape:
                    raise DataError(
                        f"tensor {name!r} shape mismatch: store 1 has {acc.shape}, "
                        f"store {k} has {store[name].shape}"
                    )
                acc += store[name]
        del store  # the loop variable would keep it alive while the next one loads
    if k == 0:
        raise DataError("need at least one store to average")
    return TensorStore({name: (acc / k).astype(np.float32) for name, acc in sums.items()})


@validated
class LoraAdapter(NamedTuple):
    """Low-rank update factors for named base tensors.

    For a base tensor of shape (d, k), A is (rank, k) and B is (d, rank);
    the merged weight is W + (alpha / rank) * B @ A.
    """

    rank: int
    alpha: float
    targets: tuple[tuple[str, np.ndarray, np.ndarray], ...]  # (name, A, B)

    def _check(self) -> None:
        if self.rank <= 0:
            raise DataError(f"rank must be positive, got {self.rank}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise DataError(f"alpha must be finite and positive, got {self.alpha}")
        seen = set()
        for name, a, b in self.targets:
            if name in seen:  # lora_merge would keep only the last delta
                raise DataError(f"adapter targets {name!r} twice")
            seen.add(name)
            if a.ndim != 2 or a.shape[0] != self.rank:
                raise DataError(
                    f"adapter {name!r}: A must have {self.rank} rows, got {a.shape}"
                )
            if b.ndim != 2 or b.shape[1] != self.rank:
                raise DataError(
                    f"adapter {name!r}: B must have {self.rank} columns, got {b.shape}"
                )


def adapter_from_store(store: TensorStore, alpha: float) -> LoraAdapter:
    """Read an adapter from a TSF store holding <name>.lora_A / <name>.lora_B.

    Each factor needs its partner.  The rank is taken from the A factors
    (their row count).
    """
    partner = {LORA_A_SUFFIX: LORA_B_SUFFIX, LORA_B_SUFFIX: LORA_A_SUFFIX}
    targets = []
    stray = []
    for name in store.names():
        suffix = next((s for s in partner if name.endswith(s)), None)
        if suffix is None:
            stray.append(name)
            continue
        base_name = name[: -len(suffix)]
        other = base_name + partner[suffix]
        if other not in store:
            raise DataError(f"adapter has {name!r} but no {other!r}")
        if suffix == LORA_A_SUFFIX:
            targets.append((base_name, store[name], store[other]))
    if not targets:
        raise DataError("adapter store contains no *.lora_A / *.lora_B pairs")
    if stray:
        raise DataError(f"adapter store has non-adapter tensors: {stray}")
    rank = int(targets[0][1].shape[0])
    return LoraAdapter(rank=rank, alpha=alpha, targets=tuple(targets))


def lora_merge(base: TensorStore, adapter: LoraAdapter) -> TensorStore:
    """Fold the low-rank update into the base weights.

    Untargeted tensors are copied unchanged; targeted ones become
    W + (alpha / rank) * B @ A, accumulated in float64.
    """
    updates: dict[str, np.ndarray] = {}
    scale = adapter.alpha / adapter.rank
    for name, a, b in adapter.targets:
        if name not in base:
            raise DataError(f"adapter targets missing base tensor {name!r}")
        w = base[name]
        expected = (b.shape[0], a.shape[1])
        if w.shape != expected:
            raise DataError(
                f"tensor {name!r}: adapter implies shape {expected}, "
                f"base has {w.shape}"
            )
        with np.errstate(over="ignore"):  # a value past float32 is inf, which add rejects
            delta = scale * (b.astype(np.float64) @ a.astype(np.float64))
            updates[name] = (w.astype(np.float64) + delta).astype(np.float32)
    merged = TensorStore()
    for name, arr in base.items():
        merged.add(name, updates.get(name, arr))
    return merged


def validate_prob_vector(values: Sequence[float], label: str = "p") -> list[float]:
    probs = [float(v) for v in values]
    if not probs:
        raise DataError(f"{label} must not be empty")
    for v in probs:
        if not math.isfinite(v) or v < 0.0:
            raise DataError(f"{label} has an invalid probability: {v}")
    total = sum(probs)
    if abs(total - 1.0) > 1e-6:
        raise DataError(f"{label} sums to {total}, not 1")
    return probs


def rdrop_penalty(
    p: Sequence[float], q: Sequence[float], epsilon_floor: bool = False
) -> float:
    """Half the bidirectional KL divergence between two distributions.

    Terms with p_i = q_i = 0 contribute nothing (0 * ln(0/x) := 0).  A
    zero on one side only makes the divergence infinite, which raises
    unless ``epsilon_floor`` clamps probabilities up to 1e-12 first.
    """
    ps = validate_prob_vector(p, "p")
    qs = validate_prob_vector(q, "q")
    if len(ps) != len(qs):
        raise DataError(f"p and q have different lengths: {len(ps)} vs {len(qs)}")
    if epsilon_floor:
        ps = [max(v, EPSILON_FLOOR) for v in ps]
        qs = [max(v, EPSILON_FLOOR) for v in qs]
    forward = 0.0
    backward = 0.0
    for i, (pi, qi) in enumerate(zip(ps, qs)):
        if pi == 0.0 and qi == 0.0:
            continue
        if pi == 0.0 or qi == 0.0:
            raise InfiniteDivergenceError(
                f"one-sided zero probability at index {i} "
                "(set epsilon_floor=True to clamp)"
            )
        log_ratio = math.log(pi) - math.log(qi)
        forward += pi * log_ratio
        backward -= qi * log_ratio
    return 0.5 * (forward + backward)


def rdrop_loss(
    p: Sequence[float],
    q: Sequence[float],
    reg_alpha: float = DEFAULT_REG_ALPHA,
    epsilon_floor: bool = False,
) -> float:
    """The penalty scaled by the regularization weight (default 5)."""
    return reg_alpha * rdrop_penalty(p, q, epsilon_floor=epsilon_floor)
