"""The fork map, the bundle's forked text pass and table writer, and stage functions' independence."""

import ast
import errno
import json
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path

import pytest

from textpersona import cleaner, cli, model, report, segmenter, stats, tables
from textpersona._pool import forked_shares, parallel_map
from textpersona.config import RunConfig, builtin_data_path
from textpersona.errors import BundleError, PipelineError
from textpersona.lexicon import Lexicon, LexiconEntry, compile_lexicon, featurize
from textpersona.model import BigFive, MappingModel
from textpersona.segmenter import WordList, segment_corpus

from perfbench import traced

FIXTURE = builtin_data_path("fixture_corpus")

ROUNDS = 10
N = 500


def _run_pair(fn, args_a, args_b):
    """Call fn(*args_a) and fn(*args_b) from two threads started together."""
    results = [None, None]
    barrier = threading.Barrier(2, timeout=30)

    def run(slot, args):
        barrier.wait()
        results[slot] = fn(*args)

    threads = [threading.Thread(target=run, args=(i, a)) for i, a in enumerate((args_a, args_b))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    return results


def _matcher(category_name, *words):
    entries = tuple(LexiconEntry(word, False, frozenset({1})) for word in words)
    return compile_lexicon(Lexicon(categories=((1, category_name),), entries=entries))


def test_concurrent_calls_see_only_their_own_state():
    tokens_by_user = {f"u{i:04d}": [["甲", "乙"]] for i in range(N)}
    # the two calls' frequencies differ, so a call that used the other's matcher shows
    matchers = _matcher("A", "甲"), _matcher("B", "甲", "乙")
    cleaned = [(f"u{i:04d}", "甲乙丙") for i in range(N)]
    word_lists = WordList.from_words(["甲乙"]), WordList.from_words(["乙丙"])
    expected_tokens = ["甲乙", "丙"], ["甲", "乙丙"]

    failures = []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_no in range(ROUNDS):
            features = _run_pair(
                featurize, (tokens_by_user, matchers[0]), (tokens_by_user, matchers[1])
            )
            for matrix, name, share in zip(features, "AB", (50.0, 100.0)):
                if matrix.names != (name,) or any(row != (share,) for row in matrix.rows):
                    failures.append(f"round {round_no}: featurize with category {name}")
            tokenized = _run_pair(
                segment_corpus, (cleaned, word_lists[0]), (cleaned, word_lists[1])
            )
            for pairs, tokens in zip(tokenized, expected_tokens):
                if any(got != tokens for _, got in pairs):
                    failures.append(f"round {round_no}: segment_corpus expecting {tokens}")
    finally:
        sys.setswitchinterval(old_interval)
    assert failures == []


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _count_forks(patch, children: list[int] | None = None) -> list[int]:
    """The pids that call os.fork from now on, one per fork; children, if given, gets the pid of each child forked."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        pid = real_fork()
        if pid and children is not None:
            children.append(pid)
        return pid

    patch.setattr(os, "fork", counting_fork)
    return forks


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 10])
def test_fork_map_keeps_input_order(threads, n, monkeypatch):
    """Fewer than two items and no items included; any threads above 1 forks one child."""
    forks = _count_forks(monkeypatch)
    assert parallel_map(lambda x: (x, x * x), range(n), threads=threads) == [(x, x * x) for x in range(n)]
    assert len(forks) == (threads > 1 and n >= 2)
    assert _no_child_left()


@pytest.mark.parametrize("fork", [False, True])
def test_forked_shares_cuts_two_halves(fork, monkeypatch):
    """The first len // 2 items and the rest, and one share however few items."""
    forks = _count_forks(monkeypatch)
    for items, halves in [(range(7), [(0, 1, 2), (3, 4, 5, 6)]), (range(2), [(0,), (1,)])]:
        with forked_shares(tuple, items, fork=fork) as gather:
            assert gather() == (halves if fork else [tuple(items)])
    for items in [range(1), []]:
        with forked_shares(tuple, items, fork=fork) as gather:
            assert gather() == [tuple(items)]
    assert len(forks) == 2 * fork
    assert _no_child_left()


def test_fork_map_takes_one_shot_generators(monkeypatch):
    """Items that pickle cannot carry reach the child whole."""
    forks = _count_forks(monkeypatch)
    items = [(c for c in word) for word in ("甲乙", "", "丙丁戊", "己")]
    assert parallel_map(lambda gen: "".join(gen), items, threads=3) == ["甲乙", "", "丙丁戊", "己"]
    assert len(forks) == 1


def test_fork_map_runs_in_process_while_another_thread_runs():
    """A fork would copy the locks the other thread may hold."""
    assert len(set(parallel_map(lambda _: os.getpid(), range(4), threads=2))) == 2
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert set(parallel_map(lambda _: os.getpid(), range(4), threads=2)) == {os.getpid()}
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


class TwoArgError(Exception):
    """pickle rebuilds an exception from its args, which this constructor does not take back."""

    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def _fail_at(bad, exc):
    def fn(x):
        if x == bad:
            raise exc
        return x

    return fn


@pytest.mark.parametrize(
    "bad, exc, raised, message",
    [
        (7, ValueError("bad item 7"), ValueError, "bad item 7"),  # in the forked child's half
        (1, KeyError("k"), KeyError, "'k'"),  # in the parent's own half
        (9, TwoArgError(3, "odd"), RuntimeError, "TwoArgError: 3: odd"),
    ],
)
def test_fork_map_reraises_a_worker_error_and_leaves_nothing_behind(bad, exc, raised, message, monkeypatch):
    forks = _count_forks(monkeypatch)
    fds = _open_fds()
    with pytest.raises(raised) as err:
        parallel_map(_fail_at(bad, exc), range(10), threads=3)
    assert str(err.value) == message
    assert len(forks) == 1
    assert _no_child_left()
    assert _open_fds() == fds


def test_fork_map_error_does_not_wait_on_a_worker_blocked_on_a_full_pipe(monkeypatch):
    children = []
    forks = _count_forks(monkeypatch, children)

    def fn(x):
        if x == 0:
            raise ValueError("first item")
        return "字" * 100_000  # more than a pipe holds

    def hung(signum, frame):
        raise TimeoutError("a worker blocked on its pipe was waited for")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(ValueError, match="first item"):
            parallel_map(fn, range(6), threads=3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        # a child left blocked would hold the run's output pipe open, and the run would never end
        for pid in children:
            try:
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            except ChildProcessError:  # already reaped, so the pid may belong to another process now
                pass
    assert len(forks) == 1
    assert _no_child_left()


def test_fork_map_leaves_no_child_or_pipe_after_success(monkeypatch):
    forks = _count_forks(monkeypatch)
    fds = _open_fds()
    big = parallel_map(lambda x: "字" * 100_000, range(4), threads=4)  # each result fills a pipe
    assert big == ["字" * 100_000] * 4
    assert len(forks) == 1
    assert _no_child_left()
    assert _open_fds() == fds


TEXT_GATE = "MIN_CHARS_PER_WORKER"
TABLE_GATE = "MIN_TABLE_CELLS_PER_WORKER"


def _fan_out(patch, *gates: str) -> None:
    """Open build_bundle's named fork gates on any corpus, with 64 CPUs: each
    open site still forks one child, the second half of its work."""
    for gate in gates:
        patch.setattr(report, gate, 1)
    patch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)


def _bundle_bytes(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def _edge_corpus(tmp_path: Path) -> RunConfig:
    """The fixture corpus plus a user whose every post is dropped, a post that
    cleans to "" but carries emoticons, and an orphan post."""
    posts = (FIXTURE / "posts.jsonl").read_text(encoding="utf-8").splitlines()
    first = json.loads(posts[0])["user_id"]
    spammed = json.loads(posts[-1])["user_id"]
    posts = [line for line in posts if json.loads(line)["user_id"] != spammed]
    extra = [
        {"user_id": spammed, "text": "淘宝 正品 [心]", "is_repost": False},
        {"user_id": spammed, "text": "抱歉，此微博已被删除", "is_repost": False},
        {"user_id": first, "text": "@某人 [心][哈哈]😊 http://t.cn/x", "is_repost": False},
        {"user_id": "nobody", "text": "没有主人的微博 [心]", "is_repost": False},
    ]
    posts += [json.dumps(post, ensure_ascii=False) for post in extra]
    (tmp_path / "posts.jsonl").write_text("\n".join(posts) + "\n", encoding="utf-8")
    config = RunConfig.from_file(FIXTURE / "run_config.json")
    config.posts_path = str(tmp_path / "posts.jsonl")
    return config


@pytest.fixture(params=["fixture", "edge"])
def corpus_config(request, tmp_path):
    if request.param == "fixture":
        return RunConfig.from_file(FIXTURE / "run_config.json")
    return _edge_corpus(tmp_path)


@pytest.mark.parametrize("gates", [(TEXT_GATE,), (TABLE_GATE,), (TEXT_GATE, TABLE_GATE)], ids=["text", "tables", "both"])
def test_fanned_out_bundle_equals_serial_and_staged_bundles(corpus_config, gates, tmp_path, monkeypatch):
    report.build_bundle(corpus_config, tmp_path / "serial")
    traced.compose_bundle(corpus_config, tmp_path / "staged", traced.Tracer())
    _fan_out(monkeypatch, *gates)
    forks = _count_forks(monkeypatch)
    fds = _open_fds()
    report.build_bundle(corpus_config, tmp_path / "forked")
    # one child for the per-user pass's second half, one for the tables' second half
    assert len(forks) == (TEXT_GATE in gates) + (TABLE_GATE in gates)
    serial = _bundle_bytes(tmp_path / "serial")
    assert _bundle_bytes(tmp_path / "forked") == serial
    assert _bundle_bytes(tmp_path / "staged") == serial
    assert _no_child_left()
    assert _open_fds() == fds
    if corpus_config.posts_path != str(FIXTURE / "posts.jsonl"):  # the edge corpus
        rows = (tmp_path / "forked" / "features.csv").read_text(encoding="utf-8").splitlines()[1:]
        (degenerate,) = [i for i, row in enumerate(rows) if row.split(",")[1] == "0"]
        assert degenerate >= len(rows) // 2  # past the parent's half, so the child skipped it


def test_fixture_bundle_forks_no_worker(tmp_path, monkeypatch):
    """The fixture corpus is below both gates on any CPU count, so the CLI test that
    a report loads no pickle checks the serial path."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)

    def no_fork():
        raise AssertionError("build_bundle forked on the fixture corpus")

    monkeypatch.setattr(os, "fork", no_fork)
    report.build_bundle(RunConfig.from_file(FIXTURE / "run_config.json"), tmp_path / "out")


def test_text_pass_forks_no_worker_for_a_single_user(monkeypatch):
    """64 CPUs and the text gate open would fork, but one user is one share."""
    _fan_out(monkeypatch, TEXT_GATE)
    forks = _count_forks(monkeypatch)
    clean = partial(cleaner.clean, spam_keywords=())
    words = WordList.from_words(["甲乙"])
    mapping = MappingModel(("A",), ((1.0, 2.0, 0.0, -1.0, 0.5),), (0.0, 1.0, 2.0, 3.0, 4.0), 1.0, 2)
    with report.user_pass({"u0": ["甲乙 [心]"]}, clean, words, _matcher("A", "甲乙"), mapping) as scored:
        features, usage, scores = scored({"u0"})
    assert report.fork_workers(len("甲乙 [心]"), report.MIN_CHARS_PER_WORKER)
    assert forks == []
    assert (features.user_ids, features.token_counts, features.rows) == (("u0",), (1,), ((100.0,),))
    assert type(usage["u0"]) is dict and usage == {"u0": {"[心]": 1}}
    assert scores == [("u0", BigFive(100.0, 201.0, 2.0, -97.0, 54.0))] and type(scores[0][1]) is BigFive


def test_forked_pass_rewraps_each_share_s_scores_as_big_five(monkeypatch):
    """The child sends plain tuples; the parent's scores equal predict's, BigFive included."""
    _fan_out(monkeypatch, TEXT_GATE)
    forks = _count_forks(monkeypatch)
    clean = partial(cleaner.clean, spam_keywords=())
    mapping = MappingModel(("A",), ((1.0, 2.0, 0.0, -1.0, 0.5),), (0.0, 1.0, 2.0, 3.0, 4.0), 1.0, 2)
    texts = {f"u{i}": ["甲乙 [心]" * (i + 1), "丙"] for i in range(6)}
    with report.user_pass(texts, clean, WordList.from_words(["甲乙"]), _matcher("A", "甲乙"), mapping) as scored:
        features, _, scores = scored(texts)
    assert len(forks) == 1
    assert scores == model.predict(mapping, features)[0]
    assert [type(score) for _, score in scores] == [BigFive] * 6
    assert _no_child_left()


def test_user_pass_keeps_one_str_per_emoticon():
    """Users' usage dicts share each emoticon's key object, which keeps a large corpus's usage small."""
    clean = partial(cleaner.clean, spam_keywords=())
    mapping = MappingModel(("A",), ((1.0, 2.0, 0.0, -1.0, 0.5),), (0.0, 1.0, 2.0, 3.0, 4.0), 1.0, 2)
    texts = {"u0": ["甲乙 [心]"], "u1": ["[心] 甲乙", "[心]"]}
    with report.user_pass(texts, clean, WordList.from_words(["甲乙"]), _matcher("A", "甲乙"), mapping) as scored:
        _, usage, _ = scored(texts)
    assert usage == {"u0": {"[心]": 1}, "u1": {"[心]": 2}}
    (first,), (second,) = usage["u0"], usage["u1"]
    assert first is second


def test_edge_corpus_has_its_edge_cases(tmp_path):
    config = _edge_corpus(tmp_path)
    report.build_bundle(config, tmp_path / "out")
    features = (tmp_path / "out" / "features.csv").read_text(encoding="utf-8").splitlines()
    assert sum(line.split(",")[1] == "0" for line in features[1:]) == 1  # the spammed user
    assert not any(line.startswith("nobody,") for line in features)


ODD_WORD = "qqodd"  # an ASCII run segments whole, and no fixture post holds it
AD_ID = "u00000ad"  # sorts among the fixture ids, in the parent's half
LATE_ORPHAN = "z-nobody"  # a poster without a profile whose id sorts last, in the child's half
ODD_USERS = ("nobody", AD_ID, "u00060", "u00119")  # nobody sorts first; the last two are accepted


def _odd_corpus(tmp_path: Path, odd_posters: tuple[str, ...], odd_weight: float) -> RunConfig:
    """The edge corpus plus an ad account (rejected), a lexicon with one more
    category, Odd, whose only word is ODD_WORD, and the fixture model with an
    Odd weight row of odd_weight. Each of odd_posters gets one post of
    ODD_WORD 1000 times, so their Odd cell is above 80 and every other
    user's 0: an odd_weight of 1e307 makes only their scores overflow."""
    tmp_path.mkdir(exist_ok=True)
    config = _edge_corpus(tmp_path)
    posts = Path(config.posts_path).read_text(encoding="utf-8").splitlines()
    posts.append(json.dumps({**AD_POST, "user_id": AD_ID}, ensure_ascii=False))
    odd_post = " ".join([ODD_WORD] * 1000)
    posts += [json.dumps({"user_id": uid, "text": odd_post, "is_repost": False}) for uid in odd_posters]
    (tmp_path / "posts.jsonl").write_text("\n".join(posts) + "\n", encoding="utf-8")
    profiles = (FIXTURE / "profiles.jsonl").read_text(encoding="utf-8")
    profiles += json.dumps({**AD_ACCOUNT, "user_id": AD_ID}, ensure_ascii=False) + "\n"
    (tmp_path / "profiles.jsonl").write_text(profiles, encoding="utf-8")
    lexicon = Path(config.lexicon_path).read_text(encoding="utf-8").replace("30\tRelig\n", "30\tRelig\n31\tOdd\n", 1)
    (tmp_path / "lexicon.dic").write_text(lexicon + f"{ODD_WORD}\t31\n", encoding="utf-8")
    doc = json.loads(Path(config.model_path).read_text(encoding="utf-8"))
    doc["category_names"].append("Odd")
    doc["W"].append([odd_weight] * 5)
    (tmp_path / "model.json").write_text(json.dumps(doc), encoding="utf-8")
    config.profiles_path = str(tmp_path / "profiles.jsonl")
    config.lexicon_path, config.model_path = str(tmp_path / "lexicon.dic"), str(tmp_path / "model.json")
    return config


def _posters(config: RunConfig) -> list[str]:
    """The sorted ids of the users with a post, which the per-user pass cuts in two halves."""
    lines = Path(config.posts_path).read_text(encoding="utf-8").splitlines()
    return sorted({json.loads(line)["user_id"] for line in lines})


def _in_child_half(config: RunConfig, uid: str) -> bool:
    """Whether uid sorts into the second half, which a forked per-user pass sends to its child."""
    posters = _posters(config)
    return posters.index(uid) >= len(posters) // 2


FAN_OUTS = pytest.mark.parametrize("gates", [(), (TEXT_GATE, TABLE_GATE)], ids=["serial", "forked"])


@FAN_OUTS
@pytest.mark.parametrize(
    "odd_posters, in_child",
    [(("nobody",), False), ((AD_ID,), False), ((LATE_ORPHAN,), True)],
    ids=["orphan", "ad_account", "late_orphan"],
)
def test_scores_that_overflow_only_for_users_left_out_keep_the_bundle(
    odd_posters, in_child, gates, tmp_path, monkeypatch
):
    """The pass scores every user with a post, the orphans and the ad account
    too; their overflow, in either half, leaves the bundle of a model whose
    Odd row is zero."""
    report.build_bundle(_odd_corpus(tmp_path / "zero", odd_posters, 0.0), tmp_path / "zero_out")
    overflowing = _odd_corpus(tmp_path / "huge", odd_posters, 1e307)
    assert [_in_child_half(overflowing, uid) for uid in odd_posters] == [in_child]
    _fan_out(monkeypatch, *gates)
    forks = _count_forks(monkeypatch)
    fds = _open_fds()
    report.build_bundle(overflowing, tmp_path / "huge_out")
    assert len(forks) == 2 * bool(gates)
    assert _no_child_left()
    assert _open_fds() == fds
    zero, huge = _bundle_bytes(tmp_path / "zero_out"), _bundle_bytes(tmp_path / "huge_out")
    manifests = [json.loads(files.pop("manifest.json")) for files in (zero, huge)]
    assert huge == zero
    hashes = [manifest.pop("input_hashes") for manifest in manifests]
    for manifest in manifests:  # each corpus has its own directory
        del manifest["config"]
    assert manifests[0] == manifests[1]
    assert [key for key in hashes[0] if hashes[0][key] != hashes[1][key]] == ["model"]
    assert [AD_ID, "ad_account"] in manifests[1]["validity"]["rejected"]
    for table in ("features.csv", "scores.csv"):  # scored, then left out
        ids = {line.split(b",")[0] for line in huge[table].splitlines()[1:]}
        assert not ids & {uid.encode() for uid in ("nobody", AD_ID, *odd_posters)}


@FAN_OUTS
def test_an_accepted_users_overflow_names_the_first_accepted_one(gates, tmp_path, monkeypatch):
    """nobody and the ad account sort first and overflow too, in the parent's
    half; u00060 and u00119 fall in the child's. Predict over the accepted
    users' matrix names the first of them."""
    config = _odd_corpus(tmp_path, ODD_USERS, 1e307)
    assert [_in_child_half(config, uid) for uid in ODD_USERS] == [False, False, True, True]
    _fan_out(monkeypatch, *gates)
    forks = _count_forks(monkeypatch)
    fds = _open_fds()
    with pytest.raises(BundleError) as err:
        report.build_bundle(config, tmp_path / "out")
    assert len(forks) == bool(gates)  # the tables' fork is never reached
    assert err.value.stage == "predict"
    assert type(err.value.cause) is PipelineError
    assert str(err.value.cause) == "the scores of user 'u00060' overflow the float range"
    assert _no_child_left()
    assert _open_fds() == fds


@FAN_OUTS
def test_malformed_profiles_fail_at_load_while_the_pass_runs(gates, tmp_path, monkeypatch, capsys):
    """The per-user pass forks before the profiles are read; their failure reaps its child."""
    config = _edge_corpus(tmp_path)
    lines = (FIXTURE / "profiles.jsonl").read_text(encoding="utf-8").splitlines()
    bad = [line if i % 2 else line[:-1] for i, line in enumerate(lines)] + ["{"]  # 61 of 121 malformed
    (tmp_path / "profiles.jsonl").write_text("\n".join(bad) + "\n", encoding="utf-8")
    config.profiles_path = str(tmp_path / "profiles.jsonl")
    doc = {**config.to_jsonable(), **{key: getattr(config, key) for key in RunConfig.PATH_KEYS}}
    (tmp_path / "run_config.json").write_text(json.dumps(doc), encoding="utf-8")
    _fan_out(monkeypatch, *gates)
    forks = _count_forks(monkeypatch)
    fds = _open_fds()
    code = cli.main(["report", "--config", str(tmp_path / "run_config.json"), "--out-dir", str(tmp_path / "out")])
    assert len(forks) == bool(gates)
    assert code == cli.EXIT_FORMAT == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    message = f"{config.profiles_path}: 61 of 121 lines malformed; wrong file format?"
    assert json.loads(line) == {"error": f"stage 'load' failed: {message}", "exit_code": 2}
    assert _no_child_left()
    assert _open_fds() == fds


def test_worker_error_is_a_bundle_error_naming_the_stage(tmp_path, monkeypatch):
    """segment runs in the text pass, so its failure in the child is one of featurize."""
    _fan_out(monkeypatch, TEXT_GATE)
    parent = os.getpid()
    real = segmenter.segment

    def in_parent_only(*args):
        if os.getpid() != parent:
            raise ValueError("segment in a worker")
        return real(*args)

    monkeypatch.setattr(segmenter, "segment", in_parent_only)
    fds = _open_fds()
    with pytest.raises(BundleError) as err:
        report.build_bundle(RunConfig.from_file(FIXTURE / "run_config.json"), tmp_path / "out")
    assert err.value.stage == "featurize"
    assert type(err.value.cause) is ValueError and str(err.value.cause) == "segment in a worker"
    assert _no_child_left()
    assert _open_fds() == fds


def test_predict_error_in_the_child_is_predicted_again_in_the_parent(tmp_path, monkeypatch):
    """A predict failure does not cross the pipe: the child sends no scores,
    and the parent predicts the accepted users' matrix once more."""
    config = RunConfig.from_file(FIXTURE / "run_config.json")
    report.build_bundle(config, tmp_path / "serial")
    _fan_out(monkeypatch, TEXT_GATE)
    parent = os.getpid()
    real = model.predict
    predicted = []  # the user ids of each matrix the parent predicts

    def in_parent_only(mapping, features):
        if os.getpid() != parent:
            raise ValueError("predict in a worker")
        predicted.append(features.user_ids)
        return real(mapping, features)

    monkeypatch.setattr(model, "predict", in_parent_only)
    fds = _open_fds()
    report.build_bundle(config, tmp_path / "forked")
    posters = _posters(config)
    features = (tmp_path / "serial" / "features.csv").read_text(encoding="utf-8").splitlines()[1:]
    accepted = tuple(line.split(",")[0] for line in features)
    assert predicted == [tuple(posters[: len(posters) // 2]), accepted]
    assert _bundle_bytes(tmp_path / "forked") == _bundle_bytes(tmp_path / "serial")
    assert _no_child_left()
    assert _open_fds() == fds


@pytest.mark.parametrize(
    "sizes, cpus, forks",
    [
        ([22_621], [1, 2, 64], False),  # the fixture corpus
        ([482_730, 1_452_460], [2, 64], True),  # the benchmark's user_heavy and text_heavy corpora, seed 1
        ([0, 22_621, 482_730, 1_452_460, 10**12], [1], False),
    ],
    ids=["fixture", "benchmark", "one_cpu"],
)
def test_user_pass_gate(sizes, cpus, forks, monkeypatch):
    for n in cpus:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        assert [report.fork_workers(chars, report.MIN_CHARS_PER_WORKER) for chars in sizes] == [forks] * len(sizes)


def test_the_package_calls_os_fork_in_one_place():
    """Every fork goes through _pool.forked_shares, so no second fork path comes back unnoticed."""
    calls = []
    for path in sorted(Path(report.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "os.fork":
                calls.append(path.name)
    assert calls == ["_pool.py"]


def test_both_fork_sites_on_64_cpus_fork_one_child_each(tmp_path, monkeypatch):
    config = RunConfig.from_file(FIXTURE / "run_config.json")
    report.build_bundle(config, tmp_path / "serial")
    _fan_out(monkeypatch, TEXT_GATE, TABLE_GATE)
    assert len(os.sched_getaffinity(0)) == 64
    forks = _count_forks(monkeypatch)
    fds = _open_fds()
    report.build_bundle(config, tmp_path / "forked")
    assert forks == [os.getpid()] * 2
    assert _bundle_bytes(tmp_path / "forked") == _bundle_bytes(tmp_path / "serial")
    assert _no_child_left()
    assert _open_fds() == fds


def _write_json_in_parent_only(patch) -> None:
    """features.json, the child's first JSON file, has its own writer."""
    parent = os.getpid()
    real_write_json = tables.FeatureTable.write_json

    def write_json(table, path):
        if os.getpid() != parent:
            raise OSError(errno.ENOSPC, f"no space for {table.name}.json")
        real_write_json(table, path)

    patch.setattr(tables.FeatureTable, "write_json", write_json)


def test_table_writer_error_is_reraised_with_its_type_and_message(tmp_path, monkeypatch):
    _fan_out(monkeypatch, TABLE_GATE)
    _write_json_in_parent_only(monkeypatch)
    fds = _open_fds()
    with pytest.raises(OSError) as err:
        report.build_bundle(RunConfig.from_file(FIXTURE / "run_config.json"), tmp_path / "out")
    assert type(err.value) is OSError and err.value.errno == errno.ENOSPC
    assert str(err.value) == f"[Errno {errno.ENOSPC}] no space for features.json"
    assert _no_child_left()
    assert _open_fds() == fds


def test_analyses_error_beside_the_table_writer_is_a_bundle_error(tmp_path, monkeypatch):
    _fan_out(monkeypatch, TABLE_GATE)

    def fail(joined):
        raise PipelineError("no provinces")

    monkeypatch.setattr(stats, "province_aggregate", fail)
    fds = _open_fds()
    with pytest.raises(BundleError) as err:
        report.build_bundle(RunConfig.from_file(FIXTURE / "run_config.json"), tmp_path / "out")
    assert err.value.stage == "analyses"
    assert type(err.value.cause) is PipelineError and str(err.value.cause) == "no provinces"
    assert _no_child_left()
    assert _open_fds() == fds


def test_bundle_error_survives_the_pipe():
    """A child sends its error pickled; a BundleError comes back with its stage and cause."""
    err = pickle.loads(pickle.dumps(BundleError("analyses", PipelineError("x"))))
    assert (type(err), err.stage, type(err.cause), str(err.cause)) == (BundleError, "analyses", PipelineError, "x")
    assert str(err) == "stage 'analyses' failed: x"


def _fail_correlations_in_the_child(patch) -> None:
    parent = os.getpid()

    def correlation_matrix(features, scores, alpha):
        if os.getpid() == parent:
            raise AssertionError("correlation_matrix ran in the parent")
        raise PipelineError("no correlations")

    patch.setattr(stats, "correlation_matrix", correlation_matrix)


def test_correlation_error_in_the_table_writer_is_a_bundle_error(tmp_path, monkeypatch):
    _fan_out(monkeypatch, TABLE_GATE)
    _fail_correlations_in_the_child(monkeypatch)
    fds = _open_fds()
    with pytest.raises(BundleError) as err:
        report.build_bundle(RunConfig.from_file(FIXTURE / "run_config.json"), tmp_path / "out")
    assert err.value.stage == "analyses"
    assert type(err.value.cause) is PipelineError and str(err.value.cause) == "no correlations"
    assert _no_child_left()
    assert _open_fds() == fds


def test_correlation_error_in_the_table_writer_is_one_json_line_exit_3(tmp_path, monkeypatch, capsys):
    _fan_out(monkeypatch, TABLE_GATE)
    _fail_correlations_in_the_child(monkeypatch)
    code = cli.main(["report", "--config", str(FIXTURE / "run_config.json"), "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_PIPELINE == 3
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line) == {"error": "stage 'analyses' failed: no correlations", "exit_code": 3}
    assert _no_child_left()


CORPUS_FILES = ("profiles.jsonl", "posts.jsonl")


def _corpus_copy(corpus: Path, rng: random.Random | None, shuffled=CORPUS_FILES, edit=None) -> RunConfig:
    """The fixture corpus and word list in corpus, with emoticon rows; the
    lines of the files named in shuffled are shuffled by rng if given, and
    each file's lines are edit(name, lines) if edit is given.

    Its run config names the corpus files and the word list (wordlist.txt)
    by relative path and every other file by absolute path, so two copies
    record the same config."""
    corpus.mkdir()
    doc = json.loads((FIXTURE / "run_config.json").read_text(encoding="utf-8"))
    sources = {name: FIXTURE / name for name in CORPUS_FILES}
    sources["wordlist.txt"] = FIXTURE / doc["word_list_path"]
    for name, source in sources.items():
        lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
        if rng is not None and name in shuffled:
            rng.shuffle(lines)
        if edit is not None:
            lines = edit(name, lines)
        (corpus / name).write_text("".join(lines), encoding="utf-8")
    for key, value in doc.items():
        if key.endswith("_path") and key not in ("profiles_path", "posts_path", "word_list_path"):
            doc[key] = str((FIXTURE / value).resolve())
    doc["word_list_path"] = "wordlist.txt"
    doc["emoticon_min_count"] = 50  # the default leaves the emoticon table without rows
    (corpus / "run_config.json").write_text(json.dumps(doc), encoding="utf-8")
    return RunConfig.from_file(corpus / "run_config.json")


def _bundles_differ_only_in_input_hashes(got_dir: Path, want_dir: Path, validity=None, id_prefix="") -> list[str]:
    """Assert two bundles hold the same tables and the same manifest apart from
    its input hashes; the names of the inputs whose hashes differ, sorted.

    If validity is given, it is got's manifest validity, which may then
    differ from want's. If id_prefix is given, it starts every user id cell
    of got's features.* and scores.*, and is taken off before comparing."""
    got, want = _bundle_bytes(got_dir), _bundle_bytes(want_dir)
    manifests = [json.loads(files.pop("manifest.json")) for files in (got, want)]
    if id_prefix:
        for stem in ("features", "scores"):
            got[f"{stem}.csv"] = _without_id_prefix(got[f"{stem}.csv"], b"\n", id_prefix.encode())
            got[f"{stem}.json"] = _without_id_prefix(got[f"{stem}.json"], b'["', id_prefix.encode())
    assert got == want
    if validity is not None:
        assert manifests[0].pop("validity") == validity
        manifests[1].pop("validity")
    hashes = [manifest.pop("input_hashes") for manifest in manifests]
    assert manifests[0] == manifests[1]
    assert [a["name"] for a in manifests[0]["artifacts"]] == [
        "features", "scores", "score_summary", "demographics", "correlations",
        "tag_contrast", "group_means", "trends", "province_means", "emoticon_contrast",
    ]
    return sorted(key for key in hashes[0] if hashes[0][key] != hashes[1][key])


def _without_id_prefix(data: bytes, row_start: bytes, prefix: bytes) -> bytes:
    """data with prefix taken off after each row_start; every one of the
    fixture's 120 users' rows must hold it."""
    assert data.count(row_start + prefix) == 120
    return data.replace(row_start + prefix, row_start)


@pytest.mark.parametrize("gates", [(), (TABLE_GATE,)], ids=["serial", "tables"])
def test_bundle_does_not_depend_on_input_line_order(gates, tmp_path, monkeypatch):
    """Every table keeps its bytes; the manifest, whose artifact list is put
    together from both shares, differs only in the input hashes."""
    _fan_out(monkeypatch, *gates)
    ordered = _corpus_copy(tmp_path / "ordered", None)
    shuffled = _corpus_copy(tmp_path / "shuffled", random.Random(7))
    for name in CORPUS_FILES:
        assert (tmp_path / "shuffled" / name).read_bytes() != (FIXTURE / name).read_bytes()
    report.build_bundle(ordered, tmp_path / "ordered_out")
    report.build_bundle(shuffled, tmp_path / "shuffled_out")
    assert _bundles_differ_only_in_input_hashes(tmp_path / "shuffled_out", tmp_path / "ordered_out") == [
        "posts", "profiles"
    ]
    assert _no_child_left()


def test_bundle_does_not_depend_on_word_list_line_order(tmp_path):
    """Shuffling the word list's lines moves only the manifest's word_list hash."""
    ordered = _corpus_copy(tmp_path / "ordered", None)
    shuffled = _corpus_copy(tmp_path / "shuffled", random.Random(7), shuffled=("wordlist.txt",))
    words = [(tmp_path / side / "wordlist.txt").read_text(encoding="utf-8") for side in ("ordered", "shuffled")]
    assert words[0] != words[1] and sorted(words[0].splitlines()) == sorted(words[1].splitlines())
    report.build_bundle(ordered, tmp_path / "ordered_out")
    report.build_bundle(shuffled, tmp_path / "shuffled_out")
    assert _bundles_differ_only_in_input_hashes(tmp_path / "shuffled_out", tmp_path / "ordered_out") == [
        "word_list"
    ]


def test_report_process_above_the_text_gate_writes_the_serial_bundle(tmp_path, monkeypatch):
    """Each fixture post three times is above 50k raw characters, so a
    `python -m textpersona report` process forks its per-user pass on 2 or
    more CPUs; it leaves no process of its session behind."""

    def tripled_posts(name, lines):
        return lines * 3 if name == "posts.jsonl" else lines

    tripled = _corpus_copy(tmp_path / "corpus", None, edit=tripled_posts)
    posts = (tmp_path / "corpus" / "posts.jsonl").read_text(encoding="utf-8").splitlines()
    assert sum(len(json.loads(line)["text"]) for line in posts) > 2 * report.MIN_CHARS_PER_WORKER
    src = str(Path(report.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "textpersona", "report", "--config", str(tmp_path / "corpus" / "run_config.json")]
    with subprocess.Popen([*argv, "--out-dir", str(tmp_path / "forked")], env=env, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    with pytest.raises(ProcessLookupError):  # the session's process group is empty
        os.killpg(proc.pid, 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    report.build_bundle(tripled, tmp_path / "serial")
    assert _bundle_bytes(tmp_path / "forked") == _bundle_bytes(tmp_path / "serial")


AD_ACCOUNT = {  # a profile every analysis would count, if validate let it through
    "birth_date": "1990-05-01", "follower_count": 0, "gender": "m", "location": "北京", "schools": ["学校0"],
    "tags": ["Music", "Reading"], "user_id": "u00059ad", "verified": False,
}
AD_POST = {"is_repost": False, "text": "好物推荐开心[哈哈] http://taobao.com/item", "user_id": "u00059ad"}


def test_a_rejected_user_changes_only_the_manifest_validity(tmp_path):
    """An ad account that validate rejects leaves every table as it was; the
    manifest's validity names it, and only the corpus files' hashes move."""

    def with_ad_account(name, lines):
        added = {"profiles.jsonl": AD_ACCOUNT, "posts.jsonl": AD_POST}.get(name)
        return lines if added is None else [*lines, json.dumps(added, ensure_ascii=False) + "\n"]

    plain = _corpus_copy(tmp_path / "plain", None)
    with_ad = _corpus_copy(tmp_path / "with_ad", None, edit=with_ad_account)
    report.build_bundle(plain, tmp_path / "plain_out")
    report.build_bundle(with_ad, tmp_path / "with_ad_out")
    validity = {"accepted": 120, "rejected": [["u00059ad", "ad_account"]], "total_users": 121}
    assert _bundles_differ_only_in_input_hashes(tmp_path / "with_ad_out", tmp_path / "plain_out", validity) == [
        "posts", "profiles"
    ]


def test_bundle_does_not_depend_on_user_id_values(tmp_path):
    """Relabelling every user id with one prefix keeps their order, so only
    the id cells of features.* and scores.* change, and the corpus hashes."""

    def relabelled(name, lines):
        if name not in CORPUS_FILES:
            return lines
        out = [line.replace('"user_id": "', '"user_id": "id-', 1) for line in lines]
        assert sum(a != b for a, b in zip(out, lines)) == len(lines)
        return out

    plain = _corpus_copy(tmp_path / "plain", None)
    relabel = _corpus_copy(tmp_path / "relabelled", None, edit=relabelled)
    report.build_bundle(plain, tmp_path / "plain_out")
    report.build_bundle(relabel, tmp_path / "relabelled_out")
    assert _bundles_differ_only_in_input_hashes(
        tmp_path / "relabelled_out", tmp_path / "plain_out", id_prefix="id-"
    ) == ["posts", "profiles"]


def test_tables_are_written_in_process_while_another_thread_runs(tmp_path, monkeypatch):
    """A write in a child would fail; in process the bundle has the serial bytes."""
    config = RunConfig.from_file(FIXTURE / "run_config.json")
    report.build_bundle(config, tmp_path / "serial")
    _fan_out(monkeypatch, TABLE_GATE)
    _write_json_in_parent_only(monkeypatch)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        report.build_bundle(config, tmp_path / "in_process")
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert _bundle_bytes(tmp_path / "in_process") == _bundle_bytes(tmp_path / "serial")
