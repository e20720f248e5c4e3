"""Tier-1 gate on report bytes: fixed command lines give fixed reports.

Each command line runs in process through `cli.main`; the sha256 of its exit
code and stdout must equal the digest committed below.  A change that is
meant to keep every report byte-identical has to pass this test unchanged; a
change that alters a report on purpose recomputes the digests and says which
report changed and why.
"""

import contextlib
import hashlib
import io

import pytest

from qplab import cli


def _argv() -> list:
    argv = []
    for g in (2, 3, 4, 5):
        for seed in (0, 1):
            argv.append(("verify-all", f"--g={g}", f"--seed={seed}", "--budget=0.05"))
    for command in ("phi", "fh", "sample"):
        for g in (2, 4):
            for index in (0, 1):
                argv.append((command, f"--g={g}", f"--index={index}"))
                argv.append((command, f"--g={g}", f"--index={index}", "--on-y"))
    argv.append(("bundle-splitting", "--g=2"))
    argv.append(("verify-all", "--lambdas=1/3,2,7/2,5,-4/5,11/7", "--budget=0.2"))
    return argv


ARGV = _argv()


def report_digest(argv) -> str:
    """sha256 of the exit code and the stdout of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


DIGESTS = {
    'verify-all --g=2 --seed=0 --budget=0.05':
        '729d761bc9bfe733df6e88725eb4212fb515938285623cd7a82362a40ab276ee',
    'verify-all --g=2 --seed=1 --budget=0.05':
        '4e2805f0aeabc8bd0196522f4bd3110663bb1852e34377bc2cbe213f6a449afa',
    'verify-all --g=3 --seed=0 --budget=0.05':
        '389ef072f2d9099ba0ae7a64749211068b09a16c9c6faea9c199fd37101e2a89',
    'verify-all --g=3 --seed=1 --budget=0.05':
        '558b9562c59e871510ae74ee088acd1af4cb97478f4be622f0753164bb1434e0',
    'verify-all --g=4 --seed=0 --budget=0.05':
        'e2dc2b145b8777262fec7393cd5c47dee1a7dba277550af40c5bd9b1cb29ee0c',
    'verify-all --g=4 --seed=1 --budget=0.05':
        '88cd0398cce013626a2a09bca8a00e222c71b301dc4f4f1c9568da4d84c3813a',
    'verify-all --g=5 --seed=0 --budget=0.05':
        'ce48d0773e76b307091afa58034292fb89e10a1dbc7be62b3a6c7a4ba3150512',
    'verify-all --g=5 --seed=1 --budget=0.05':
        '0567e566891e279a2d2b2c319c23947ceb53d3486c4353749401948124dc9255',
    'phi --g=2 --index=0':
        '246a0f28bfbdb2560edc88b2ee46a512961458d344f6c0de27b5a6dc7b789b12',
    'phi --g=2 --index=0 --on-y':
        'bbbc20b7348fbe59c9111e8408bb82c57508b4086e0942a345e3a39799b59a9d',
    'phi --g=2 --index=1':
        'dc3ae2d93333d4c3e7b8ce4909d23468b7fe9acdba60fc399defce0f84cd38cf',
    'phi --g=2 --index=1 --on-y':
        '611e521aca332e117dbbac74667da3cc851d9124cae315f14749528005b84b24',
    'phi --g=4 --index=0':
        '3003f35e793cb80097215f5232cd5867562d9fbcaa82d67a7ac9af026f3b2d1c',
    'phi --g=4 --index=0 --on-y':
        'd9bef05719b3060214d80b2015a9d8e4afc0ecc955304fb0052dd10c7144685d',
    'phi --g=4 --index=1':
        '8005783b562a1acc419755da5463f8081c61360f333b322215935400e8e703ae',
    'phi --g=4 --index=1 --on-y':
        '5d86ae817c70c7676e24f0cef94d1a0c2f9a3b60a51d8224111ece5019430c63',
    'fh --g=2 --index=0':
        '29066635c0b64f84a88a6e20a3cc555edcd1618a23c3e09c8cf760311087dc7a',
    'fh --g=2 --index=0 --on-y':
        '11b0b96124be0f6d548888163f9fde712982dd47fc5286ac96636272ca504966',
    'fh --g=2 --index=1':
        'cd1cc22d85544ee7f5dc75af8d98cd210dfadea3afc5c7daad2902195472b3a4',
    'fh --g=2 --index=1 --on-y':
        'f3f9d132ffc58cc34b3ab2be83a1ea7b35d87cf4e8e5313bdb66a1a7ff32034b',
    'fh --g=4 --index=0':
        '76d9a9b89e176b469857c6336f4f31bf84d98b41101db15cae5482667ef06255',
    'fh --g=4 --index=0 --on-y':
        '2502304d616c737c401fbce0147b665e453c04a98ef562f176ddc0215ed79cf0',
    'fh --g=4 --index=1':
        'dc5662cdac4ce068ecc0373d7007c26a974b92af7dbca5247eb8be4412731763',
    'fh --g=4 --index=1 --on-y':
        '48b43cc64a7433a912b188ddc53cb2100905a96d51d33404907f35ac1448641a',
    'sample --g=2 --index=0':
        '11ecb3a9733c11686e7bf4691471dafe67ec1fb8cfc95eb8c83b562fbef30859',
    'sample --g=2 --index=0 --on-y':
        'a9e8f2b434e7b1b32535b858884426da7050c3ee31210a8cb78fcccd94ea4363',
    'sample --g=2 --index=1':
        'dcd04a39b81efee85300866fddafcae92232674bd6bdc402c9edeb1b7c9ad5c4',
    'sample --g=2 --index=1 --on-y':
        'fe36066d1e41aa725352c1479252f94e6626a1b5538441cc68c35e76a85ec407',
    'sample --g=4 --index=0':
        '8f0e00ed2d81a54bed52cced938765d6ff442d485a1d736676fb7bf16bc81ade',
    'sample --g=4 --index=0 --on-y':
        'ae53638aa8554bf520f3d71b4fdbbe807a3e03b2e9f9cda8ef698cad7a58abf6',
    'sample --g=4 --index=1':
        '49ceb266bfd1bb257bb859deb2593d9a838d893f3c23d15cce100ac70dcce1a6',
    'sample --g=4 --index=1 --on-y':
        '98b96b1c6e3ae7a11546239ef4333b551b1631b86664a27b77e40687ff9f7c6c',
    'bundle-splitting --g=2':
        '66cbac644518cb6e0b4bbf0d633a6f06bfebc38e654f34e013c171e3569c02dd',
    'verify-all --lambdas=1/3,2,7/2,5,-4/5,11/7 --budget=0.2':
        'df8036867b7934ab03d063ffd30627498b7a76ae5cf1ff43cf7d06cd8a4e1f54',
}


@pytest.mark.parametrize("argv", ARGV, ids=" ".join)
def test_report_bytes_unchanged(argv):
    assert report_digest(argv) == DIGESTS[" ".join(argv)], f"report of {' '.join(argv)} changed"
