"""The README's CLI walkthrough, run in-process once per session, and the
checks made on what it writes: no sidecar files, byte-deterministic
predictions, flags and config keys that name the same settings, manifests
as csv.writer writes them, a feature matrix read from a pipe, and bundles
rewritten in another syntax or row order that must predict and score the
same."""

import contextlib
import csv
import io
import os
import random
import re
import shlex
import shutil
from dataclasses import dataclass
from pathlib import Path

import pytest

from venomguard.cli import DEFAULTS, build_parser, main

from conftest import README, piped, readme_key_flags, run, setting_actions

MANIFESTS = ("classes.csv", "observations.csv", "locations.csv", "truth.csv")
OUTPUT = ("-o", "--output")


def walkthrough_commands(text: str) -> list[list[str]]:
    """The argv, after ``venomguard``, of each command in the first ``sh``
    block under ``## CLI walkthrough``: continued lines joined, comments
    and blank lines skipped."""
    block = re.search(r"^## CLI walkthrough.*?^```sh[^\n]*\n(.*?)^```", text, re.M | re.S)
    assert block, "README has no sh block under ## CLI walkthrough"
    lines = block.group(1).replace("\\\n", "").splitlines()
    commands = [argv for argv in (shlex.split(line, comments=True) for line in lines) if argv]
    for argv in commands:
        assert argv[0] == "venomguard", argv
    assert commands[-1][1] == "score", "the walkthrough does not end with score"
    return [argv[1:] for argv in commands]


@contextlib.contextmanager
def working_directory(path: Path):
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


def replaced(argv: list[str], options: tuple[str, ...], value) -> list[str]:
    """``argv`` with the value of its one option named in ``options`` replaced."""
    (at,) = [i + 1 for i, token in enumerate(argv) if token in options]
    return [*argv[:at], str(value), *argv[at + 1:]]


def moved(argv: list[str], old: Path, new: Path) -> list[str]:
    """``argv`` with every path inside directory ``old`` moved into ``new``."""
    return [
        str(new / Path(token).relative_to(old)) if old in (Path(token), *Path(token).parents)
        else token
        for token in argv
    ]


def ok(capsys, argv: list[str]) -> str:
    """The stdout of ``venomguard *argv``, which must exit 0."""
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return out


def rows_of(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def csv_bytes(rows: list[list[str]], lineterminator="\n", **fmt) -> bytes:
    buf = io.StringIO()
    csv.writer(buf, lineterminator=lineterminator, **fmt).writerows(rows)
    return buf.getvalue().encode()


@dataclass(frozen=True)
class Walk:
    dir: Path
    commands: dict[str, list[str]]  # by subcommand

    def output(self, name: str) -> Path:
        """The relative path command ``name`` writes."""
        return Path(build_parser().parse_args(self.commands[name]).output)

    @property
    def bundle(self) -> Path:
        return self.output("synth")


@pytest.fixture(scope="session")
def walk(tmp_path_factory):
    """The walkthrough run as written, in a session directory."""
    commands = walkthrough_commands(README.read_text(encoding="utf-8"))
    by_name = {argv[0]: argv for argv in commands}
    assert len(by_name) == len(commands), "a walkthrough command runs twice"
    directory = tmp_path_factory.mktemp("walkthrough")
    with working_directory(directory):
        for argv in commands:
            assert main(argv) == 0, argv
    return Walk(directory, by_name)


@pytest.fixture
def in_walk(walk, monkeypatch):
    """The walkthrough, its directory the working one, as its commands need."""
    monkeypatch.chdir(walk.dir)
    return walk


@dataclass(frozen=True)
class Original:
    summary: dict[str, str]  # validate's key=value fields
    preds: bytes
    explain: bytes
    score: bytes  # score --json of the plain predictions


@pytest.fixture(scope="session")
def original(walk):
    """What the walkthrough's bundle gives, for its rewritten twins to match."""
    with working_directory(walk.dir), contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(walk.commands["validate"]) == 0
        explain = replaced(walk.commands["infer"], OUTPUT, "explain.csv")
        assert main([*explain, "--explain"]) == 0
        assert main([*walk.commands["score"], "--json", "score.json"]) == 0
    (summary_line, *_) = out.getvalue().splitlines()
    return Original(
        summary=dict(field.split("=") for field in summary_line.split()),
        preds=(walk.dir / walk.output("infer")).read_bytes(),
        explain=(walk.dir / "explain.csv").read_bytes(),
        score=(walk.dir / "score.json").read_bytes(),
    )


def test_writes_no_sidecar_file(walk):
    assert (walk.dir / walk.output("pca")).is_file()
    assert (walk.dir / walk.output("train-prior")).is_file()
    assert sorted(walk.dir.rglob("*.meta")) == []


def test_infer_again_gives_the_same_bytes(capsys, in_walk, tmp_path):
    again = tmp_path / "preds.csv"
    ok(capsys, replaced(in_walk.commands["infer"], OUTPUT, again))
    assert again.read_bytes() == in_walk.output("infer").read_bytes()


def test_config_file_gives_the_bytes_of_the_flags(capsys, in_walk, tmp_path):
    # pca, train-prior and infer again, each setting flag moved into a
    # --config file as the key its dest names: a flag and its key must set
    # the same setting, or the key is unknown or the bytes differ
    flags = {pair for pairs in readme_key_flags().values() for pair in pairs}
    renamed = {}  # walkthrough output -> its twin from the config run
    for name in ("pca", "train-prior", "infer"):
        actions = {flag: a for n, a in setting_actions() if n == name for flag in a.option_strings}
        kept, lines = [], []
        tokens = iter(renamed.get(token, token) for token in in_walk.commands[name])
        for token in tokens:
            if (name, token) in flags:
                action = actions[token]
                lines.append(f"{action.dest} = {'true' if action.nargs == 0 else next(tokens)}")
            else:
                kept.append(token)
        assert lines, f"the walkthrough's {name} sets nothing"
        args = build_parser().parse_args(kept)
        assert [key for key in DEFAULTS if getattr(args, key, None) is not None] == []
        config = tmp_path / f"{name}.cfg"
        config.write_text("\n".join(lines) + "\n")
        output = in_walk.output(name)
        twin = tmp_path / output.name
        renamed[str(output)] = str(twin)
        ok(capsys, [*replaced(kept, OUTPUT, twin), "--config", str(config)])
        assert twin.read_bytes() == output.read_bytes(), name


def test_written_manifests_are_the_bytes_csv_writer_gives(in_walk):
    # the package writes plain rows without csv.writer
    for path in (in_walk.output("infer"), *(in_walk.bundle / name for name in MANIFESTS)):
        assert path.read_bytes() == csv_bytes(rows_of(path)), path


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_pca_from_a_pipe_gives_the_bytes_of_the_file(capsys, in_walk, tmp_path):
    # a pipe is read in bounded chunks, a regular file straight into its array
    argv = in_walk.commands["pca"]
    features = build_parser().parse_args(argv).features
    again = tmp_path / "pca.bin"
    with piped(Path(features).read_bytes()) as pipe:
        ok(capsys, replaced([pipe if token == features else token for token in argv], OUTPUT, again))
    assert again.read_bytes() == in_walk.output("pca").read_bytes()


# Each rewrite changes files of a copied bundle and returns their names.


def crlf(bundle: Path):
    # still read from byte offsets
    for name in MANIFESTS:
        (bundle / name).write_bytes(csv_bytes(rows_of(bundle / name), lineterminator="\r\n"))
    return MANIFESTS


def quoted(bundle: Path):
    # read by csv.reader
    for name in MANIFESTS:
        (bundle / name).write_bytes(csv_bytes(rows_of(bundle / name), quoting=csv.QUOTE_ALL))
    return MANIFESTS


def integers_spelled(spell):
    def rewrite(bundle: Path):
        names = {"observations.csv": (1, 2), "locations.csv": (1,)}
        for name, columns in names.items():
            header, *rows = rows_of(bundle / name)
            for row in rows:
                for j in columns:
                    row[j] = spell(row[j]) if row[j] else row[j]
            (bundle / name).write_bytes(csv_bytes([header, *rows]))
        return tuple(names)

    return rewrite


def classes_reversed(bundle: Path):
    # classes are read by id
    header, *rows = rows_of(bundle / "classes.csv")
    (bundle / "classes.csv").write_bytes(csv_bytes([header, *rows[::-1]]))
    return ("classes.csv",)


def locations_shuffled_and_one_unused(bundle: Path):
    # the codes no longer equal the observations' column for column, so
    # they are resolved by lookup
    header, *rows = rows_of(bundle / "locations.csv")
    random.Random(0).shuffle(rows)
    (bundle / "locations.csv").write_bytes(csv_bytes([header, *rows, ["loc_unused", "0"]]))
    return ("locations.csv",)


def observations_interleaved(bundle: Path):
    # each observation's rows keep their relative order, so that its
    # scores are added in the same order
    header, *rows = rows_of(bundle / "observations.csv")
    by_obs = {}
    for row in rows:
        by_obs.setdefault(row[0], []).append(row)
    queues = {obs_id: iter(group) for obs_id, group in by_obs.items()}
    mixed = [next(queues[row[0]]) for row in random.Random(0).sample(rows, len(rows))]
    ids = [row[0] for row in mixed]
    assert ids != sorted(ids)  # so the loader's sort runs
    (bundle / "observations.csv").write_bytes(csv_bytes([header, *mixed]))
    return ("observations.csv",)


@pytest.mark.parametrize(
    "rewrite",
    [
        crlf,
        quoted,
        integers_spelled("{:0>12}".format),
        integers_spelled(" {}".format),
        classes_reversed,
        locations_shuffled_and_one_unused,
        observations_interleaved,
    ],
    ids=["crlf", "quoted", "padded", "spaced", "classes-reversed", "locations-shuffled",
         "rows-interleaved"],
)
def test_variant_predicts_and_scores_as_the_original(
    capsys, in_walk, original, tmp_path, rewrite
):
    bundle = tmp_path / "bundle"
    shutil.copytree(in_walk.bundle, bundle)
    for name in rewrite(bundle):
        assert (bundle / name).read_bytes() != (in_walk.bundle / name).read_bytes(), name

    validate, infer, score = (
        moved(in_walk.commands[name], in_walk.bundle, bundle)
        for name in ("validate", "infer", "score")
    )
    summary = dict(field.split("=") for field in ok(capsys, validate).split())
    locations = len(rows_of(bundle / "locations.csv")) - 1
    assert summary == original.summary | {"locations": str(locations)}
    preds, report = tmp_path / "preds.csv", tmp_path / "score.json"
    for explain, expected in ((), original.preds), (["--explain"], original.explain):
        ok(capsys, [*replaced(infer, OUTPUT, preds), *explain])
        assert preds.read_bytes() == expected
        ok(capsys, [*replaced(score, ("--pred",), preds), "--json", str(report)])
        assert report.read_bytes() == original.score
