"""Golden `cliquealg run` reports: every algorithm at n in {8, 16, 64}.

Each case pins the sha256 of the full report that `cliquealg run` writes for
a generated instance at seed 1: the output text and its digest, the verdict,
and the complete cost ledger (`ledger.to_text()`), so a change meant to be
round-neutral must leave every phase's rounds and messages, and every output
byte, exactly as they were.  A change that alters ledgers on purpose updates
these digests and explains the ledger diff.
"""

import collections
import contextlib
import hashlib
import io
import re
import warnings

import pytest

from cliquealg import cli

GOLDEN = {
    "trivial": {
        ("mm", 8): "5dbed297cb06c22e8f75e67540794e2d7a7b9575b9ecda388d3aea8fa3366070",
        ("distprod", 8): "4a3f0d6865513de0dab3fa77b9f52cb88ac4528cabf24edcdf43554ec09af8d8",
        ("det", 8): "0e3d09495bdd473e562f5d289a36a8c16e0828f4f594fb1348138eb13bf57f0f",
        ("inverse", 8): "45f0892bd6fbc4c4924af5dea827ee369a51b4a91767a9eca91de699b4076bc3",
        ("minpol", 8): "9708280c7de8a157b08bfa763e47b92415e76ccd6a2b3d4c0079e74528eb26c5",
        ("solve", 8): "17ce56893d9819c70af48a3ebe86870d3d666077a794d259d259b8f51b3744c8",
        ("rank", 8): "c4899348ad985b4df24fd8a92ef33c196f8071b4e2e806f8e99392883b840459",
        ("apsp", 8): "399efcba7debce58af1dd8d35f3608b2f2858568566129d2844ff42a7b5e59b4",
        ("apsp-zwick", 8): "a77365e2b1a5ae5586693929d9e20a8244fb986884d02f253b66d2da53880ae2",
        ("diameter", 8): "261842b4f4c3c3af2deb8ce4e9fc89ce36142700290efe321b240ad9934a5bb6",
        ("matching-size", 8): "ad72f223c81d44938831abbf7ce03d5a0310e299dbca158a277d4b0a6304351e",
        ("allowed-edges", 8): "a94a6e5edfa97046458d5e7be92b90b08cba0b7d25d603c716533aa91921a623",
        ("gallai-edmonds", 8): "d8a72cb4cb555a882132e8c06c947a18e83ef7d341d690704d89a0e3a4db2275",
        ("mm", 16): "fd146d0b7010b4f939d44f78cc6fcf9448dff541b7add9e7d6f3dd944b59ff9b",
        ("distprod", 16): "1a1ed8a9ebef0aa6276116cdf6e0a321cd1ded1037ade439820d083f6481abc1",
        ("det", 16): "6ded598ac22c765d58c55d580487d4fb2d701ac8117249fc6221b26f32b4d12a",
        ("inverse", 16): "ed82c96f28df09988552395d9bdffa5b954c328370a843a7304dc1cfa48aa01c",
        ("minpol", 16): "e8e6bd87450d29305baca1ad2bed3d649c4725d3823ee7683897366b30fac8a9",
        ("solve", 16): "98a16e8712a381a0290a508874812354a1ceff2b79a4b074f77555a238b974ef",
        ("rank", 16): "5f47ffee17d19227b4fae7a3bbf988922e0ebc2ea769acb900ac09d20ea4fc48",
        ("apsp", 16): "228419b0d365e19a8c4983195a7b61c95187331ff3ea634953f2654e60ff5a1e",
        ("apsp-zwick", 16): "8994c8f64d19b769c04c5456fd0221850a5e0c6a289bb6e0217266e61220907b",
        ("diameter", 16): "bef48efcbd14349b668e11df1db4c2298cabac423aeb0c21419936c40acd34c8",
        ("matching-size", 16): "a1b588231d72b8f5ae5a59829b432a2ba55ac182a1f593b0164d3c02a8c2f84c",
        ("allowed-edges", 16): "a708fd5e5d5d727510688fd404a1256a119f525b8b905444183b2d484cc742a1",
        ("gallai-edmonds", 16): "4164a10e360be7d880c0d8a40003e42e3c18a491c96869e01f9b95ff4d0d80ff",
        ("mm", 64): "6f92efa10d459981b42601d1b3648fefe420fa4aadca3cc9ff9cd3c67dde1a76",
        ("distprod", 64): "6d51dd7ef37a46148deec487d80043a222660ddfa04c8f070f6788e5dbe400f3",
        ("det", 64): "68ab7f34db90bbde19c1d0d1ae346c13837c4c71343bc0de31961211f3d5902d",
        ("inverse", 64): "fd92b141d3f8c7d52cdf9894bbecffee3932d4e37e5b86d2e87f8c20e6ae857c",
        ("minpol", 64): "575d0401602bc378b39606a290eaa6df2e674e269c59388ad82087d98ef1ac70",
        ("solve", 64): "e5ec5ca87fcc42e8372ac6fe036e527366688bfe7ef4792a292ba06e2c16cc40",
        ("rank", 64): "d79e1e47166ccb906d5e0880e6696a74a8945becf3c15f3e9eff8eb1775284a2",
        ("apsp", 64): "7769079ef2d5448b205634ff5e9675918d999dd3eccb6d376e97fb08faa7e4a0",
        ("apsp-zwick", 64): "24a0fa43b2e34b189e85d052099785ca3264e14c7ed72d66d99831307898f9e1",
        ("diameter", 64): "23f90ccc4ba92ef9cc69debb3624a4084e64c092d2a30b5ecf7098fe6866610e",
        ("matching-size", 64): "0a24a103eb1ec3dfcd8eb00a2d384e58ff778f3ddd2cbc7c4c1167800e4e41b8",
        ("allowed-edges", 64): "03151c60303b9b2fd9e33f1089c57c6fc5848aa513c903b542ddd71c8954d92e",
        ("gallai-edmonds", 64): "8753b12bd52f685930c2631a01a111339ff6a504c76dfe59584d976c032c7932",
    },
    "strassen": {
        ("mm", 8): "5dbed297cb06c22e8f75e67540794e2d7a7b9575b9ecda388d3aea8fa3366070",
        ("det", 8): "0e3d09495bdd473e562f5d289a36a8c16e0828f4f594fb1348138eb13bf57f0f",
        ("inverse", 8): "45f0892bd6fbc4c4924af5dea827ee369a51b4a91767a9eca91de699b4076bc3",
        ("minpol", 8): "9708280c7de8a157b08bfa763e47b92415e76ccd6a2b3d4c0079e74528eb26c5",
        ("mm", 16): "c34620eea56d8cae29b762f9cfa9d712abcf667eb52b9b0549a05e152c73fa28",
        ("det", 16): "256852f80d96275401b14fb7e3821da0f8c8848660833032d96c951416210032",
        ("inverse", 16): "f105ac6f863b1ff5c9ed5c5a361e85d7a69eae1342189bf0e70f66e7d099105e",
        ("minpol", 16): "7c99fa29046432b9aa1e8c240a941886edfe8256e274074381e41625d2c3ba7e",
        ("mm", 64): "4fef6c69d85f83fea15cc120b2f9448e928967ae3e6f88ef6175fead93ac3600",
        ("det", 64): "695e69edb9ae08be7b887cbda6c519743a1f91f1300d8152ccb37284ab4a427c",
        ("inverse", 64): "8080812d8d0f20147f112ccc995830de77071a1dba2f8bd88901785389a4370a",
        ("minpol", 64): "6032a60297d1498238214fdea97c12356d17f312ab5e27d8ac1d89ed5ebac1d2",
    },
}

CASES = [(kernel, alg, n) for kernel, table in GOLDEN.items() for alg, n in table]


def test_every_algorithm_is_pinned():
    assert {alg for alg, _ in GOLDEN["trivial"]} == set(cli.ALGORITHMS)
    assert {n for _, n in GOLDEN["trivial"]} == {8, 16, 64}


def report_digest(kernel, algorithm, n, path):
    """sha256 of the report `cliquealg run` writes to path for one case."""
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")
        cli.main(["run", algorithm, "--gen", f"default:n={n}", "--seed", "1",
                  "--kernel", kernel, "--out", str(path)])
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kernel,algorithm,n", CASES)
def test_run_report_digest(kernel, algorithm, n, tmp_path):
    digest = report_digest(kernel, algorithm, n, tmp_path / "report")
    assert digest == GOLDEN[kernel][(algorithm, n)]


def ledger_summary(report: str) -> list[str]:
    """One report's output digest and verdict, its routed phases in order
    (path with digits masked, subset, rounds, messages), and its count of
    0-round phases by name."""
    lines = [line for line in report.splitlines()
             if line.startswith(("output-digest:", "verdict:"))]
    local = collections.Counter()
    for path, subset, rounds, messages in re.findall(
            r"^phase=(\S+) subset=(\d+) rounds=(\d+) messages=(\d+)$", report, re.M):
        path = re.sub(r"\d+", "#", path)
        if rounds == messages == "0":
            local[path.rsplit("/", 1)[-1]] += 1
        else:
            lines.append(f"routed {path} subset={subset} rounds={rounds} messages={messages}")
    return lines + [f"local {name} x{count}" for name, count in sorted(local.items())]


if __name__ == "__main__":
    # `PYTHONPATH=src python tests/test_golden.py` prints `kernel algorithm n
    # digest` for every case from the tree on the path; diffing the output of
    # two trees names exactly the cases a change moves.  With `--ledgers` it
    # also prints each case's `ledger_summary`, so the diff shows which
    # routed phases moved and which 0-round phases came or went.
    import pathlib
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        report = pathlib.Path(tmp) / "report"
        for kernel, algorithm, n in CASES:
            print(kernel, algorithm, n, report_digest(kernel, algorithm, n, report))
            if "--ledgers" in sys.argv[1:]:
                for line in ledger_summary(report.read_text()):
                    print("   ", line)
