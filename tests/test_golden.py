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
        ("minpol", 8): "984f574c55d047c71aa132b7e31a2eab60f0524f166cc91d5b9d0802ac6402aa",
        ("solve", 8): "61b186c8664801d94a90cc41c167a861c9ebf1b1a3b68d70af5caec72135bf0f",
        ("rank", 8): "a03e0fd26949650276ed9dd9a3a288253f4e63eb22caf177951e750e2cdcf2d7",
        ("apsp", 8): "48eb49b36971359562568ec87bc643999b211d720c947e9b79a9ed4f6cf3b0e4",
        ("apsp-zwick", 8): "6bd4686cf8c404878920a57f784cbdc767187cb070c885e9c251ab0c5bb4d398",
        ("diameter", 8): "0875c88f377c46bd4ef09ca00a0c17ff1f5027ff42860d9d3d788cdd04b61d5e",
        ("matching-size", 8): "e8caa7787e9b214fc46d30cc9bf6364c3feb40fc824dea4214e7fc46484a2bff",
        ("allowed-edges", 8): "c54c350b92eb301f2f44cfaa46dd603118c1a1e90d184ff9a1b00189b20d4877",
        ("gallai-edmonds", 8): "d69756eafa324f920c7947610b55b4b507162e88a1d751f122c94cee8437aba6",
        ("mm", 16): "fd146d0b7010b4f939d44f78cc6fcf9448dff541b7add9e7d6f3dd944b59ff9b",
        ("distprod", 16): "1a1ed8a9ebef0aa6276116cdf6e0a321cd1ded1037ade439820d083f6481abc1",
        ("det", 16): "6ded598ac22c765d58c55d580487d4fb2d701ac8117249fc6221b26f32b4d12a",
        ("inverse", 16): "ed82c96f28df09988552395d9bdffa5b954c328370a843a7304dc1cfa48aa01c",
        ("minpol", 16): "8cd3ba4f53715c41ea1e2995d1e908de6f9cff0e23649594defccb73cf6ce9d8",
        ("solve", 16): "11700a8eee56be189626bdbdd1fa3d4235a4ca82ff701401f5bdefb8052934da",
        ("rank", 16): "706edf7382a164200557798ad4d7c3f65055fd9977e2cfaab5df481924a4c4dc",
        ("apsp", 16): "7ed720913411646bf433549145ceb15ed733cdd0a7cd3977be3dcf4148aa7230",
        ("apsp-zwick", 16): "e9ebcc0ada6609b517c0702fe7b0ce0ca7033a6f88b3166a87282990231fddce",
        ("diameter", 16): "697d3dc1662ec0f476d82762a7ffb9df3d7ac414ac190826654882f5a86ee6fb",
        ("matching-size", 16): "939fe468b3f0ca909f5e5a7e5723e4cad7b06528b54be7671033530ff23c88b4",
        ("allowed-edges", 16): "13b49afc7cd2397880567f39549fa42087ee23d9e483f2fb4041d3e9bbfbf307",
        ("gallai-edmonds", 16): "c6ab7ea492bdac3b2bdbe135ebae723672bd4a33c763180fcc945ab21ba6be9f",
        ("mm", 64): "6f92efa10d459981b42601d1b3648fefe420fa4aadca3cc9ff9cd3c67dde1a76",
        ("distprod", 64): "6d51dd7ef37a46148deec487d80043a222660ddfa04c8f070f6788e5dbe400f3",
        ("det", 64): "68ab7f34db90bbde19c1d0d1ae346c13837c4c71343bc0de31961211f3d5902d",
        ("inverse", 64): "fd92b141d3f8c7d52cdf9894bbecffee3932d4e37e5b86d2e87f8c20e6ae857c",
        ("minpol", 64): "ccbbae1f51b7b171a07fca4e778319f6044ab138d44211beb2bb3f014b4a44ad",
        ("solve", 64): "d756a6121541c83588ecc869816ce3b64fb7047e72847a4eb5bf7b9ca337dc11",
        ("rank", 64): "5327b3447434c79d614822f74cc4982594b85083201989baf5420c0f72a78fb4",
        ("apsp", 64): "e4f71eda3a53a85fd65fcd4e4f5ef839164d2f2326d2cbe3602c61b6a304acc8",
        ("apsp-zwick", 64): "f65ccd3cf5d174aecf5dcbfa3ed6d2b0f08fe1cc68e14e2583f38ae30dfa38da",
        ("diameter", 64): "bbf7630f4490b2020ed9fc333c081e28b61edd07e16e39ed9d34134bb608bfe1",
        ("matching-size", 64): "9248b7b0f5b8e5b0e8d7b9970c89365e4ed2243598e8a4d363a4d76579b06d9b",
        ("allowed-edges", 64): "943a674bbebcc3659a48e42757033ce554e3a49bc4c889ec370b312d49f64dad",
        ("gallai-edmonds", 64): "916f4105c53c189072abdb8f8fb178a0d2c7e4fdc583b25575b91c8c261626f9",
    },
    "strassen": {
        ("mm", 8): "5dbed297cb06c22e8f75e67540794e2d7a7b9575b9ecda388d3aea8fa3366070",
        ("det", 8): "0e3d09495bdd473e562f5d289a36a8c16e0828f4f594fb1348138eb13bf57f0f",
        ("inverse", 8): "45f0892bd6fbc4c4924af5dea827ee369a51b4a91767a9eca91de699b4076bc3",
        ("minpol", 8): "984f574c55d047c71aa132b7e31a2eab60f0524f166cc91d5b9d0802ac6402aa",
        ("mm", 16): "c34620eea56d8cae29b762f9cfa9d712abcf667eb52b9b0549a05e152c73fa28",
        ("det", 16): "256852f80d96275401b14fb7e3821da0f8c8848660833032d96c951416210032",
        ("inverse", 16): "f105ac6f863b1ff5c9ed5c5a361e85d7a69eae1342189bf0e70f66e7d099105e",
        ("minpol", 16): "d9f241795adee56e460a7415822b299b20a6c6548ab3c2b4f4c03dbe7a90cc2e",
        ("mm", 64): "4fef6c69d85f83fea15cc120b2f9448e928967ae3e6f88ef6175fead93ac3600",
        ("det", 64): "695e69edb9ae08be7b887cbda6c519743a1f91f1300d8152ccb37284ab4a427c",
        ("inverse", 64): "8080812d8d0f20147f112ccc995830de77071a1dba2f8bd88901785389a4370a",
        ("minpol", 64): "f64a9ee69ecac2616d631cf3869866186f170d18bc0ae4a2303c57d6163a558d",
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
