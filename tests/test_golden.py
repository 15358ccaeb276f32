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
        ("minpol", 8): "e3c3710a5db86e99e54314bdc7d766dd5994649687226f36df75262cc3de980d",
        ("solve", 8): "daa10b212202fc5475c1235bdd5b089f952e65f0036372cce4a8739d61916bd3",
        ("rank", 8): "221f79ca44b61bc5b6d47878aa35f102053fc0c0171af5adfe2055ea37539d47",
        ("apsp", 8): "399efcba7debce58af1dd8d35f3608b2f2858568566129d2844ff42a7b5e59b4",
        ("apsp-zwick", 8): "a77365e2b1a5ae5586693929d9e20a8244fb986884d02f253b66d2da53880ae2",
        ("diameter", 8): "261842b4f4c3c3af2deb8ce4e9fc89ce36142700290efe321b240ad9934a5bb6",
        ("matching-size", 8): "a791415a9f06606d177bc22843a706f600fb25c15531916f4ae46b48cccb549c",
        ("allowed-edges", 8): "90e80b440e16ce0ee2ec5320dfe9fbf1afce007c2040d7d478ce3de07967ad27",
        ("gallai-edmonds", 8): "5ac1a83f1feb62a2fba08c41438f5dfd5cd37df73bec2aa7b25297d8d83d32dc",
        ("mm", 16): "fd146d0b7010b4f939d44f78cc6fcf9448dff541b7add9e7d6f3dd944b59ff9b",
        ("distprod", 16): "1a1ed8a9ebef0aa6276116cdf6e0a321cd1ded1037ade439820d083f6481abc1",
        ("det", 16): "6ded598ac22c765d58c55d580487d4fb2d701ac8117249fc6221b26f32b4d12a",
        ("inverse", 16): "ed82c96f28df09988552395d9bdffa5b954c328370a843a7304dc1cfa48aa01c",
        ("minpol", 16): "edeff4c39d64b490531e6946ab2a5832e9c82af6253a0c7080b17ec32d8c5563",
        ("solve", 16): "0d78ab3d8f8c424180b78e04b876730dcf10625e8bc71e23bfcfcab80b8c45a3",
        ("rank", 16): "75cfa45cebdc49a0b9105ca70bc18bec15a6cf40f3838e509bb07168cf0f582c",
        ("apsp", 16): "228419b0d365e19a8c4983195a7b61c95187331ff3ea634953f2654e60ff5a1e",
        ("apsp-zwick", 16): "8994c8f64d19b769c04c5456fd0221850a5e0c6a289bb6e0217266e61220907b",
        ("diameter", 16): "bef48efcbd14349b668e11df1db4c2298cabac423aeb0c21419936c40acd34c8",
        ("matching-size", 16): "af2822859ee7a8833ad1621db661f71f9e8689e4e391c48af1c5787e856f9602",
        ("allowed-edges", 16): "f55014d138ac69e8ba6159143216b9a03233a57e0d5d3ada6b5b22eb1f3cbb93",
        ("gallai-edmonds", 16): "3b344430fe85d1f8ba6def71dbe1ff2a0da87f5af6c81acedf67aff0a97dd1c2",
        ("mm", 64): "6f92efa10d459981b42601d1b3648fefe420fa4aadca3cc9ff9cd3c67dde1a76",
        ("distprod", 64): "6d51dd7ef37a46148deec487d80043a222660ddfa04c8f070f6788e5dbe400f3",
        ("det", 64): "68ab7f34db90bbde19c1d0d1ae346c13837c4c71343bc0de31961211f3d5902d",
        ("inverse", 64): "fd92b141d3f8c7d52cdf9894bbecffee3932d4e37e5b86d2e87f8c20e6ae857c",
        ("minpol", 64): "b511a7c755394a7ab8a28054c054a67d818b2f70baf1a989378823bc7c1898fb",
        ("solve", 64): "13b5f984d4b6ec5fe87746bbea19ce76cd436c30c562c1be958628474ad8db2f",
        ("rank", 64): "115b6684a4a73a1e1748bc8248ba809552ba9cde8715b7a3c497679b2e91bcae",
        ("apsp", 64): "7769079ef2d5448b205634ff5e9675918d999dd3eccb6d376e97fb08faa7e4a0",
        ("apsp-zwick", 64): "24a0fa43b2e34b189e85d052099785ca3264e14c7ed72d66d99831307898f9e1",
        ("diameter", 64): "23f90ccc4ba92ef9cc69debb3624a4084e64c092d2a30b5ecf7098fe6866610e",
        ("matching-size", 64): "08def2111a2b7652b961ef4f2920c8753f1448a6573520c32d0d50975e00f8ba",
        ("allowed-edges", 64): "52f4f64ea73b7c8b68c287fdcb0d709ba5834efc5aefda5d12a256f3952272d2",
        ("gallai-edmonds", 64): "105f32bbbbad42cdda08bb5122a9a2563882aea948f4ecae5cf29eaae6772481",
    },
    "strassen": {
        ("mm", 8): "5dbed297cb06c22e8f75e67540794e2d7a7b9575b9ecda388d3aea8fa3366070",
        ("det", 8): "0e3d09495bdd473e562f5d289a36a8c16e0828f4f594fb1348138eb13bf57f0f",
        ("inverse", 8): "45f0892bd6fbc4c4924af5dea827ee369a51b4a91767a9eca91de699b4076bc3",
        ("minpol", 8): "e3c3710a5db86e99e54314bdc7d766dd5994649687226f36df75262cc3de980d",
        ("mm", 16): "c34620eea56d8cae29b762f9cfa9d712abcf667eb52b9b0549a05e152c73fa28",
        ("det", 16): "256852f80d96275401b14fb7e3821da0f8c8848660833032d96c951416210032",
        ("inverse", 16): "f105ac6f863b1ff5c9ed5c5a361e85d7a69eae1342189bf0e70f66e7d099105e",
        ("minpol", 16): "d5a39bbd0baa58bdc82a910d2dead4ff8451e451191b6d16cd14374d77d903e7",
        ("mm", 64): "4fef6c69d85f83fea15cc120b2f9448e928967ae3e6f88ef6175fead93ac3600",
        ("det", 64): "695e69edb9ae08be7b887cbda6c519743a1f91f1300d8152ccb37284ab4a427c",
        ("inverse", 64): "8080812d8d0f20147f112ccc995830de77071a1dba2f8bd88901785389a4370a",
        ("minpol", 64): "8e456e0363883d69ed6f0e01d49e7f85734a2ccb14d4b06a61827a81a0d2602a",
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
    """One report's output digest, verdict and total rounds and messages, its
    routed phases in order (path with digits masked, subset, rounds,
    messages), and its count of 0-round phases by name."""
    lines = [line for line in report.splitlines()
             if line.startswith(("output-digest:", "verdict:", "rounds:", "messages:"))]
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
