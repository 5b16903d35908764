"""Byte identity of CLI output across commits.

Each command's exit code, stdout, stderr and ``--out`` files are hashed and
compared with digests recorded from an earlier commit of the program, so a
change that alters any output byte of the cheap demo commands, or of the
same commands on a target with every piece kind, or of the regime checks
on a target whose witnesses take every printed form, shows up here.
The README promises deterministic output; this keeps that promise across
versions, not only across runs of the same version.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from accumgraph.cli import main

DEMOS = ("constant", "square", "hyperbola", "sect6")
REGIMES = ("b2-bounded", "b2", "b1-bounded", "b1")
PASSING = {
    "constant": REGIMES,
    "square": ("b2-bounded", "b2"),
    "hyperbola": ("b2", "b1"),
    "sect6": ("b2", "b1"),
}
SMALL = ["--depth", "4", "--grid", "64"]
# A target file with every piece kind and every arc pole position, which the
# demos lack; commands name it by file name and run it by path.
MIXED = Path(__file__).with_name("mixed_target.txt")
MIXED_PASSING = ("b2", "b1")
# A target that fails every regime, with witnesses of every printed form: an
# open, a half-open and a closed span, and a bare number.
WITNESS = Path(__file__).with_name("witness_target.txt")
TARGET_FILES = {path.name: path for path in (MIXED, WITNESS)}


def golden_commands():
    cmds = [("check", demo, "--regime", regime, "--depth", "4")
            for demo in DEMOS for regime in REGIMES]
    for demo in DEMOS:
        for regime in PASSING[demo]:
            for sub in ("synth", "verify"):
                cmds.append((sub, demo, "--regime", regime, *SMALL))
    for demo in ("sect6", "hyperbola"):
        cmds.append(("strips", demo, "--regime", "b1", *SMALL))
    # Levels of about 300 columns, each built from several blocks of balls.
    for demo in ("constant", "hyperbola", "sect6"):
        cmds.append(("strips", demo, "--regime", "b1", "--depth", "6", "--grid", "256"))
    # CLI defaults (depth 10, grid 1024), as the benchmark's certify runs them.
    for demo in ("sect6", "hyperbola", "constant"):
        cmds.append(("strips", demo, "--regime", "b1"))
    cmds += [("check", MIXED.name, "--regime", regime, "--depth", "4") for regime in REGIMES]
    for regime in MIXED_PASSING:
        for sub in ("synth", "verify", "strips"):
            if sub != "strips" or regime.startswith("b1"):
                cmds.append((sub, MIXED.name, "--regime", regime, *SMALL))
    cmds += [("check", WITNESS.name, "--regime", regime, "--depth", "4") for regime in REGIMES]
    return cmds


def output_digest(argv, workdir: Path) -> str:
    """sha256 over the exit code, stdout, stderr and every --out file."""
    argv = [str(TARGET_FILES[arg]) if arg in TARGET_FILES else arg for arg in argv]
    if argv[0] != "check":
        argv += ["--out", str(workdir / "out")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    h = hashlib.sha256(f"{code}\n".encode())
    for text in (out.getvalue(), err.getvalue()):
        h.update(text.encode() + b"\0")
    for path in sorted(workdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


GOLDEN = {
    "check constant --regime b2-bounded --depth 4":
        "a7627f97a2f01a628d962bf43bb429512a3b9d46e34cbc3fd1316614119118ca",
    "check constant --regime b2 --depth 4":
        "6e9e62abe1d93184b99edc276c41a491cc26893c6031f83d99c73cfa2d2eb2ac",
    "check constant --regime b1-bounded --depth 4":
        "02ffb063b6e80b869617711519efcec6d24c332356eb6d2a69d4b3b299bf92ff",
    "check constant --regime b1 --depth 4":
        "b9b8e181f2a23955c2a0e099c6eb5bed673e31f8fab90c0020948b1b8b6d8a6f",
    "check square --regime b2-bounded --depth 4":
        "a7627f97a2f01a628d962bf43bb429512a3b9d46e34cbc3fd1316614119118ca",
    "check square --regime b2 --depth 4":
        "6e9e62abe1d93184b99edc276c41a491cc26893c6031f83d99c73cfa2d2eb2ac",
    "check square --regime b1-bounded --depth 4":
        "f20a8f310072050d8013aa0e791da4fb4979635abb4938c3763718a6a7c8fdf1",
    "check square --regime b1 --depth 4":
        "9f084af14ae6fe366e054c551bf8ced2bb0247a37f7184c6fc6fec6e717546f4",
    "check hyperbola --regime b2-bounded --depth 4":
        "f69f1dfa12eab394ec25559377de1e8f188cc7b26c43f00652c63309eba4b640",
    "check hyperbola --regime b2 --depth 4":
        "6e9e62abe1d93184b99edc276c41a491cc26893c6031f83d99c73cfa2d2eb2ac",
    "check hyperbola --regime b1-bounded --depth 4":
        "335122658c2f69e2d2ee9d1316e4c718ef427742b364d25a6c34e24745d56440",
    "check hyperbola --regime b1 --depth 4":
        "b9b8e181f2a23955c2a0e099c6eb5bed673e31f8fab90c0020948b1b8b6d8a6f",
    "check sect6 --regime b2-bounded --depth 4":
        "a1778a6bbd9ddea2f22595aeb0f96f3bd68d6bc536bcf8ffe04e8082ad041852",
    "check sect6 --regime b2 --depth 4":
        "2111688e51447160c8ccc0ad0c59a563db00b22268b732ccbc0638cbe0d8df36",
    "check sect6 --regime b1-bounded --depth 4":
        "7684972458dbea7f1fc2ed0da1a6d7d94373f6c70fb26c9aa94a0c2d7377314b",
    "check sect6 --regime b1 --depth 4":
        "e16857a846cc711fe605cd87b4183171484c734ab10dc22532904a2ba57ac759",
    "synth constant --regime b2-bounded --depth 4 --grid 64":
        "564f4853435554e62ffec97ba4fc2af0ad7fdd3a22c786a7691f4b0384094498",
    "verify constant --regime b2-bounded --depth 4 --grid 64":
        "e310449b5fc5e93c509ba84c068bf6a77d7dfdb1d15af30a45538fea8d4b84f0",
    "synth constant --regime b2 --depth 4 --grid 64":
        "564f4853435554e62ffec97ba4fc2af0ad7fdd3a22c786a7691f4b0384094498",
    "verify constant --regime b2 --depth 4 --grid 64":
        "e310449b5fc5e93c509ba84c068bf6a77d7dfdb1d15af30a45538fea8d4b84f0",
    "synth constant --regime b1-bounded --depth 4 --grid 64":
        "564f4853435554e62ffec97ba4fc2af0ad7fdd3a22c786a7691f4b0384094498",
    "verify constant --regime b1-bounded --depth 4 --grid 64":
        "e310449b5fc5e93c509ba84c068bf6a77d7dfdb1d15af30a45538fea8d4b84f0",
    "synth constant --regime b1 --depth 4 --grid 64":
        "564f4853435554e62ffec97ba4fc2af0ad7fdd3a22c786a7691f4b0384094498",
    "verify constant --regime b1 --depth 4 --grid 64":
        "e310449b5fc5e93c509ba84c068bf6a77d7dfdb1d15af30a45538fea8d4b84f0",
    "synth square --regime b2-bounded --depth 4 --grid 64":
        "f4754bbda93a29e0a224f1b8fad97fafb9cf0b1432cda22d440e8ab0eaae24b9",
    "verify square --regime b2-bounded --depth 4 --grid 64":
        "86570626b85f2ed9d009e93780b76355d9ce660cb5957bc06990173827746620",
    "synth square --regime b2 --depth 4 --grid 64":
        "f4754bbda93a29e0a224f1b8fad97fafb9cf0b1432cda22d440e8ab0eaae24b9",
    "verify square --regime b2 --depth 4 --grid 64":
        "86570626b85f2ed9d009e93780b76355d9ce660cb5957bc06990173827746620",
    "synth hyperbola --regime b2 --depth 4 --grid 64":
        "afb0af37647f4d1864ef781cd9bf8c720192489c01067a8ac4c0173dec3b2d34",
    "verify hyperbola --regime b2 --depth 4 --grid 64":
        "15e3008397341b638026c510ee8ef4d7c1d1f5ab27493e9c9199a3805a9d48d3",
    "synth hyperbola --regime b1 --depth 4 --grid 64":
        "afb0af37647f4d1864ef781cd9bf8c720192489c01067a8ac4c0173dec3b2d34",
    "verify hyperbola --regime b1 --depth 4 --grid 64":
        "15e3008397341b638026c510ee8ef4d7c1d1f5ab27493e9c9199a3805a9d48d3",
    "synth sect6 --regime b2 --depth 4 --grid 64":
        "57fb12938f1a0ecbfb3841b9bc8ca9df612fd5bb8329917d48670d6fc8c23f89",
    "verify sect6 --regime b2 --depth 4 --grid 64":
        "f9e731c84f57f3e2f7e6bd5f8b79dff622d96204c785e1e295079c359cb1880b",
    "synth sect6 --regime b1 --depth 4 --grid 64":
        "57fb12938f1a0ecbfb3841b9bc8ca9df612fd5bb8329917d48670d6fc8c23f89",
    "verify sect6 --regime b1 --depth 4 --grid 64":
        "f9e731c84f57f3e2f7e6bd5f8b79dff622d96204c785e1e295079c359cb1880b",
    "strips sect6 --regime b1 --depth 4 --grid 64":
        "6ee808a1211fbe535f03544496f57f42149adf1efd6a2e7e0184d1c375b90d84",
    "strips hyperbola --regime b1 --depth 4 --grid 64":
        "6e655620d44eb306558de603a010b650796f5593c235705ebc3f22e1085a4dec",
    "strips constant --regime b1 --depth 6 --grid 256":
        "d0735090ea1873c1fe3c584fdea4f268386a3ee9702e1fd5d66cf7592d88c52a",
    "strips hyperbola --regime b1 --depth 6 --grid 256":
        "289b4a2c6b35713f7b0c7c9119f3e60281208acab4a16f4616f1dfa2d83a965e",
    "strips sect6 --regime b1 --depth 6 --grid 256":
        "5e749a94d0f5fc10b6c76fd93381051e3747fd446cb2e60088ccf9c97fc4551a",
    "strips sect6 --regime b1":
        "eb5521bd2337245a41dc3f59460f05f33f04a0323de69e106c7ef17224dfe2ab",
    "strips hyperbola --regime b1":
        "a2c1de51bdc6e7441aa6b25dc729c77b8ef2b8bb918d180b04c1859526da75ca",
    "strips constant --regime b1":
        "21915518378cbf8f00308b0d488db10e10a9116060cdd5928f8aa4593f1275b7",
    "check mixed_target.txt --regime b2-bounded --depth 4":
        "c642343b26edfc88835ab98bec2dd5362028fee8340e48b8124f6ad04768086f",
    "check mixed_target.txt --regime b2 --depth 4":
        "6e9e62abe1d93184b99edc276c41a491cc26893c6031f83d99c73cfa2d2eb2ac",
    "check mixed_target.txt --regime b1-bounded --depth 4":
        "3ffe4503e17165d0b6830dc6d5a50cd9d801c7d6c81a546fe8cfc479d81dae77",
    "check mixed_target.txt --regime b1 --depth 4":
        "b9b8e181f2a23955c2a0e099c6eb5bed673e31f8fab90c0020948b1b8b6d8a6f",
    "synth mixed_target.txt --regime b2 --depth 4 --grid 64":
        "7b0de8fa3de71f3ab56c492b78aa5bb5f7fb2871723513998c922a79ce19e501",
    "verify mixed_target.txt --regime b2 --depth 4 --grid 64":
        "fbba2b604f7d4714d14dccc5363c1d188331012b0c16d6cfe61aef806b7c0246",
    "synth mixed_target.txt --regime b1 --depth 4 --grid 64":
        "99c230ffaa81cd48b0e47dae8670b87f95e4d593fca8a9b04623adb367a9ae55",
    "verify mixed_target.txt --regime b1 --depth 4 --grid 64":
        "887a1a21ca9126ddcfcf55bf375d441ddc3cb6097682232f6bccf81f7c01f35a",
    "strips mixed_target.txt --regime b1 --depth 4 --grid 64":
        "13984ba09c1fa8fa58711f10b91d30201d82f7bcfbd2609142f79d4b9bf22d7e",
    "check witness_target.txt --regime b2-bounded --depth 4":
        "52e6960f8050522177bcbc975a7ad59b94b044b4a58648116e139c18e3fcf6ae",
    "check witness_target.txt --regime b2 --depth 4":
        "3d023c9fbf73ce1e35224f7e961df640e55dc96a053129255ad45218bdec88f9",
    "check witness_target.txt --regime b1-bounded --depth 4":
        "21b07bcd9f381f6b3bd4fb7d63fbe0f66e0d4d86f6439c9d7fcf6d64eef8399e",
    "check witness_target.txt --regime b1 --depth 4":
        "ce41dd69cda3e89d11ec29804824d2fde6ee0ddbbf5aae4341a72fb5546ed4a8",
}


@pytest.mark.parametrize("argv", golden_commands(), ids=" ".join)
def test_cli_output_bytes_unchanged(argv, tmp_path):
    assert output_digest(argv, tmp_path) == GOLDEN[" ".join(argv)]
