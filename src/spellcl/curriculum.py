"""Arrange scored samples into training-stage manifests.

The main arrangement is an annealing schedule with k+1 stages: samples are
sorted by ascending difficulty, cut into k non-overlapping subsets, each
subset is cut the same way into k parts, and stage i (i <= k) concatenates
part i of every subset - so every stage mixes strata from easiest to
hardest.  The final stage replays the full set.

What the split guarantees for stages i-1 and i (1 < i <= k): stage i is
never larger, and with both stages sorted ascending, the q-th score of
stage i is at least the q-th score of stage i-1 for every q below
len(stage i).  So the stage mean does not fall when the two stages have
the same size.  It can fall otherwise: the remainders go to the earlier
parts, so a later, smaller stage can have a lower mean.  A stage is empty
when every subset has fewer samples than its index.  Example: n=4, k=3
gives subsets {a,b}, {c}, {d} (ascending scores 0..3) and stages {a,c,d},
{b}, {} - means 1.67 then 1.00.

Annealing shuffles stage i (i <= k) under (seed, stream i) with the package
PRNG, so manifests are byte-identical across runs and platforms.

Ablation arrangements: ``random_stages`` cuts one stream-0 shuffle of the
IDs into k stages and, like annealing, ends with the full set (stream
k+1), so both visit every sample twice; ``sorted_only`` (ascending) and
``shuffled_baseline`` (stream 0) have one stage and visit each sample once.

Balanced splits put the remainder up front: splitting n into k parts gives
the first n mod k parts one extra element, and the same rule recurses into
the inner split.  Score ties are broken by sample ID, so arrangement is a
pure function of (records, k, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .corpus import numbered_lines, read_text, write_text
from .difficulty import DifficultyRecord
from .errors import ConfigError, MalformedLine
from .rng import shuffled

ARRANGEMENTS = ("annealing", "sorted_only", "random_stages", "shuffled_baseline")


@dataclass(frozen=True)
class CurriculumManifest:
    policy: str
    k: int
    seed: int
    stages: tuple[tuple[str, ...], ...]  # training order; stage 1 first
    source_corpus: str = ""  # the file the arrangement read; ``spellcl arrange`` sets it

    def all_ids(self) -> set[str]:
        return {i for stage in self.stages for i in stage}


def balanced_split(items: list, k: int) -> list[list]:
    """Split into k contiguous parts, sizes as equal as possible, extras first."""
    base, extra = divmod(len(items), k)
    bounds = [i * base + min(i, extra) for i in range(k + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _sorted_ids(records: list[DifficultyRecord]) -> list[str]:
    return [r.sample_id for r in sorted(records, key=lambda r: (r.score, r.sample_id))]


def _check(items: list, k: int, what: str) -> None:
    if not items:
        raise ConfigError(f"cannot arrange an empty {what} list")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(items):
        raise ConfigError(f"k={k} exceeds the number of samples ({len(items)})")


def _with_full_set(policy: str, stages: list[tuple[str, ...]], ordered: list[str], k: int,
                   seed: int) -> CurriculumManifest:
    full_set = tuple(shuffled(ordered, seed, stream=k + 1))
    return CurriculumManifest(policy=policy, k=k, seed=seed, stages=(*stages, full_set))


def arrange_annealing(records: list[DifficultyRecord], k: int, seed: int) -> CurriculumManifest:
    """The k+1-stage annealing arrangement described above."""
    _check(records, k, "record")
    ordered = _sorted_ids(records)
    subsets = balanced_split(ordered, k)
    parts = [balanced_split(subset, k) for subset in subsets]

    stages = []
    for i in range(k):
        stage = [sid for subset_parts in parts for sid in subset_parts[i]]
        stages.append(tuple(shuffled(stage, seed, stream=i + 1)))
    return _with_full_set("annealing", stages, ordered, k, seed)


def arrange_sorted_only(records: list[DifficultyRecord], seed: int) -> CurriculumManifest:
    """Single stage in ascending difficulty order; no shuffling."""
    _check(records, 1, "record")
    return CurriculumManifest(policy="sorted_only", k=1, seed=seed,
                              stages=(tuple(_sorted_ids(records)),))


def arrange_random_stages(ids: list[str], k: int, seed: int) -> CurriculumManifest:
    """Random balanced stages (difficulty ignored) plus the full-set stage."""
    _check(ids, k, "id")
    pool = shuffled(ids, seed, stream=0)
    stages = [tuple(part) for part in balanced_split(pool, k)]
    return _with_full_set("random_stages", stages, ids, k, seed)


def arrange_shuffled_baseline(ids: list[str], seed: int) -> CurriculumManifest:
    """One full-set shuffled stage: the conventional-training control."""
    _check(ids, 1, "id")
    return CurriculumManifest(policy="shuffled_baseline", k=1, seed=seed,
                              stages=(tuple(shuffled(ids, seed, stream=0)),))


def arrange(policy: str, ids: list[str] | None, records: list[DifficultyRecord] | None,
            k: int, seed: int) -> CurriculumManifest:
    """Arrange with the named policy: ``annealing`` and ``sorted_only`` read
    ``records``, ``random_stages`` and ``shuffled_baseline`` read ``ids``."""
    # Looked up by global name at call time, so wrappers set on this module
    # (the benchmark's span tracer) see every call.
    if policy == "annealing":
        return arrange_annealing(records, k, seed)
    if policy == "sorted_only":
        return arrange_sorted_only(records, seed)
    if policy == "random_stages":
        return arrange_random_stages(ids, k, seed)
    if policy == "shuffled_baseline":
        return arrange_shuffled_baseline(ids, seed)
    raise ValueError(f"unknown arrangement policy {policy!r}")


# --- manifest file (JSON lines) ----------------------------------------------

def manifest_to_jsonl(manifest: CurriculumManifest) -> str:
    """Line 1: metadata object; then one {"stage": i, "ids": [...]} per stage."""
    meta = {
        "policy": manifest.policy,
        "k": manifest.k,
        "seed": manifest.seed,
        "corpus": manifest.source_corpus,
        "n": len(manifest.all_ids()),
    }
    lines = [json.dumps(meta, ensure_ascii=False)]
    for i, stage in enumerate(manifest.stages, start=1):
        lines.append(json.dumps({"stage": i, "ids": list(stage)}, ensure_ascii=False))
    return "\n".join(lines) + "\n"


def _is_int(value) -> bool:
    # JSON true and false load as bools, which Python counts as ints
    return isinstance(value, int) and not isinstance(value, bool)


def parse_manifest(text: str) -> CurriculumManifest:
    lines = list(numbered_lines(text))
    if not lines:
        raise MalformedLine("empty manifest document")
    meta_line_no, meta_line = lines[0]
    try:
        meta = json.loads(meta_line)
    except json.JSONDecodeError as exc:
        raise MalformedLine(f"line {meta_line_no}: {exc}")
    if not isinstance(meta, dict):
        raise MalformedLine(f"line {meta_line_no}: expected a JSON object")
    for key in ("policy", "k", "seed", "corpus"):
        if key not in meta:
            raise MalformedLine(f"line {meta_line_no}: metadata missing {key!r}")
    if meta["policy"] not in ARRANGEMENTS:
        raise MalformedLine(f"line {meta_line_no}: unknown policy {meta['policy']!r}")
    for key, kind, valid in (("k", "an integer >= 1", _is_int(meta["k"]) and meta["k"] >= 1),
                             ("seed", "an integer", _is_int(meta["seed"])),
                             ("corpus", "a string", isinstance(meta["corpus"], str))):
        if not valid:
            raise MalformedLine(f"line {meta_line_no}: {key!r} must be {kind}, got {meta[key]!r}")

    stages = []
    for line_no, line in lines[1:]:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedLine(f"line {line_no}: {exc}")
        if not isinstance(obj, dict):
            raise MalformedLine(f"line {line_no}: expected a JSON object")
        if "stage" not in obj or "ids" not in obj:
            raise MalformedLine(f"line {line_no}: expected 'stage' and 'ids'")
        if not _is_int(obj["stage"]) or obj["stage"] != len(stages) + 1:
            raise MalformedLine(
                f"line {line_no}: expected stage {len(stages) + 1}, got {obj['stage']!r}"
            )
        ids = obj["ids"]
        if not (isinstance(ids, list) and all(isinstance(i, str) and i for i in ids)):
            raise MalformedLine(f"line {line_no}: 'ids' must be a list of non-empty strings")
        if len(set(ids)) != len(ids):
            raise MalformedLine(f"line {line_no}: duplicate ID within stage")
        stages.append(tuple(ids))
    if not stages:
        raise MalformedLine("manifest has no stages")
    return CurriculumManifest(
        policy=meta["policy"], k=meta["k"], seed=meta["seed"],
        stages=tuple(stages), source_corpus=meta["corpus"],
    )


def load_manifest(path) -> CurriculumManifest:
    return parse_manifest(read_text(path))


def save_manifest(manifest: CurriculumManifest, path) -> None:
    write_text(path, manifest_to_jsonl(manifest))
