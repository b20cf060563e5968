"""Deterministic benchmark corpora, cached by workload, seed and shape.

A corpus is a directory of generated files: ``profiles.jsonl``,
``posts.jsonl``, ``labels.csv``, ``run_config.json`` and, for shapes
with long words, an extended ``wordlist.txt``. Lexicon, model and
keyword files are the package's fixture data, referenced by relative
path so that bundles (whose manifest records the config) are
byte-identical in any checkout. Generation is never timed.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import shutil
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from textpersona import lexicon, model, synth

GENERATOR_VERSION = 1
CACHE_DIR = Path(".perfbench_cache")
DATA_DIR = Path("src") / "textpersona" / "data"
FIXTURE_TOOL = Path(__file__).resolve().parent.parent / "tools" / "make_fixtures.py"
REFERENCE_DATE = "2018-06-01"

# a real microblog corpus carries some noise; each kind below exercises
# one counted path of the pipeline (shares of users or of post lines)
NO_POST_SHARE = 0.01  # validate: rejected for no posts
AD_SHARE = 0.005  # validate: rejected as ad accounts
DELETED_SHARE = 0.005  # cleaner drops every post; predict skips the user
MALFORMED_SHARE = 0.002  # load: malformed post lines, skipped and counted

DELETED_NOTICE = "抱歉，此微博已被删除"
AD_POST = "好物推荐 http://item.taobao.com/"


@dataclass(frozen=True)
class Shape:
    users: int
    posts_per_user: tuple[int, int]
    words_per_post: tuple[int, int]
    labeled: int
    long_words: int = 0  # generated word-list entries of 5 to 8 characters
    long_words_in_posts: int = 0  # how many of them the posts draw from


WORKLOADS = {
    "text_heavy": Shape(200, (40, 80), (20, 60), labeled=100, long_words=400, long_words_in_posts=60),
    "user_heavy": Shape(5000, (1, 2), (3, 6), labeled=300),
}


@dataclass(frozen=True)
class Corpus:
    workload: str
    seed: int
    shape: Shape
    dir: Path

    @property
    def config_path(self) -> Path:
        return self.dir / "run_config.json"

    @property
    def labels_path(self) -> Path:
        return self.dir / "labels.csv"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cache_key(workload: str, seed: int, shape: Shape) -> str:
    doc = {
        "version": GENERATOR_VERSION,
        "workload": workload,
        "seed": seed,
        "shape": asdict(shape),
        "lexicon": _sha256(DATA_DIR / "sc_liwc_fixture.dic"),
        "word_list": _sha256(DATA_DIR / "wordlist.txt"),
        "profile_record": _sha256(FIXTURE_TOOL),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:12]


def corpus_for(workload: str, seed: int) -> Corpus:
    """The cached corpus, generated first if the cache lacks it."""
    shape = WORKLOADS[workload]
    target = CACHE_DIR / f"{workload}-s{seed}-{cache_key(workload, seed, shape)}"
    if not target.is_dir():
        tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        generate(workload, seed, shape, tmp)
        try:
            tmp.rename(target)
        except OSError:  # another process finished the same corpus first
            shutil.rmtree(tmp)
    return Corpus(workload, seed, shape, target)


def _long_words(rng: random.Random, pool: list[str], count: int) -> list[str]:
    chars = sorted({ch for word in pool for ch in word})
    words: set[str] = set()
    while len(words) < count:
        words.add("".join(rng.choice(chars) for _ in range(rng.randint(5, 8))))
    return sorted(words)


def _fixture_tool():
    """``tools/make_fixtures.py`` as a module; its ``profile_record`` writes the loader's profile lines."""
    spec = importlib.util.spec_from_file_location("make_fixtures", FIXTURE_TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_jsonl(path: Path, records: list[dict], malformed_at: set[int]) -> None:
    """One record per line; after each index in malformed_at, a truncated copy."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, rec in enumerate(records):
            line = json.dumps(rec, ensure_ascii=False, sort_keys=True)
            fh.write(line + "\n")
            if i in malformed_at:
                fh.write(line[: len(line) // 2] + "\n")


def generate(workload: str, seed: int, shape: Shape, out_dir: Path, data_dir: Path = DATA_DIR) -> None:
    """Write one corpus; the same arguments give the same bytes."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    entropy = [seed % 2**32, zlib.crc32(workload.encode())]
    profile_seed, posts_seed = (int(s) for s in np.random.SeedSequence(entropy).generate_state(2))
    scored = synth.generate_scored_corpus(shape.users, seed=profile_seed)

    lex = lexicon.parse_lexicon(data_dir / "sc_liwc_fixture.dic")
    pool = sorted({e.pattern for e in lex.entries if not e.wildcard})[:200] + list(synth._FILLER_WORDS)
    rel_data = Path(os.path.relpath(data_dir, out_dir))
    word_list = str(rel_data / "wordlist.txt")
    if shape.long_words:
        extra = _long_words(rng, pool, shape.long_words)
        base = (data_dir / "wordlist.txt").read_text(encoding="utf-8")
        (out_dir / "wordlist.txt").write_text(
            base + "# benchmark-generated long entries\n" + "".join(w + "\n" for w in extra),
            encoding="utf-8",
            newline="\n",
        )
        word_list = "wordlist.txt"
        pool += rng.sample(extra, shape.long_words_in_posts)

    ids = [p.user_id for p in scored.profiles]
    posts = synth.generate_posts(
        ids,
        seed=posts_seed,
        posts_per_user=shape.posts_per_user,
        words_per_post=shape.words_per_post,
        word_pool=tuple(pool),
        emoticon_usage=scored.emoticon_usage,
    )

    def share(rate: float) -> int:
        return max(1, round(rate * len(ids)))

    special = rng.sample(ids, share(NO_POST_SHARE) + share(AD_SHARE) + share(DELETED_SHARE))
    no_posts = set(special[: share(NO_POST_SHARE)])
    ads = set(special[share(NO_POST_SHARE) : share(NO_POST_SHARE) + share(AD_SHARE)])
    deleted = set(special) - no_posts - ads

    post_records = []
    for post in posts:
        if post.user_id in no_posts:
            continue
        text = DELETED_NOTICE if post.user_id in deleted else post.text
        post_records.append({"user_id": post.user_id, "text": text, "is_repost": post.is_repost})
    for uid in sorted(ads):
        post_records.append({"user_id": uid, "text": AD_POST + str(rng.randrange(10**6)), "is_repost": False})
    profile_record = _fixture_tool().profile_record
    profile_records = []
    for p in scored.profiles:
        rec = profile_record(p)
        if p.user_id in ads:
            rec["follower_count"] = rng.randrange(10)
        profile_records.append(rec)

    n_bad = max(1, round(MALFORMED_SHARE * len(post_records)))
    _write_jsonl(out_dir / "posts.jsonl", post_records, set(rng.sample(range(len(post_records)), n_bad)))
    _write_jsonl(out_dir / "profiles.jsonl", profile_records, {rng.randrange(len(profile_records))})

    regular = [uid for uid in ids if uid not in special]
    labeled = sorted(rng.sample(regular, min(shape.labeled, len(regular))))
    model.write_scores_csv([(uid, scored.scores[uid]) for uid in labeled], out_dir / "labels.csv")

    config = {
        "reference_date": REFERENCE_DATE,
        "profiles_path": "profiles.jsonl",
        "posts_path": "posts.jsonl",
        "lexicon_path": str(rel_data / "sc_liwc_fixture.dic"),
        "word_list_path": word_list,
        "spam_keywords_path": str(rel_data / "spam_keywords.txt"),
        "system_templates_path": str(rel_data / "system_templates.txt"),
        "model_path": str(rel_data / "fixture_corpus" / "model.json"),
    }
    with open(out_dir / "run_config.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
