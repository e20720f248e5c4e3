"""Tier-1 gate on report bytes: fixed command lines give fixed reports.

Each command line runs in process through `cli.main`; the sha256 of its exit
code and stdout must equal the digest committed below.  A change that is
meant to keep every report byte-identical has to pass this test unchanged; a
change that alters a report on purpose recomputes the digests and says which
report changed and why.  `python tests/test_report_bytes.py` (with qplab
importable) prints a freshly computed DIGESTS block to paste below.
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
    for g in (2, 3, 4, 5, 6):
        argv.append(("bundle-splitting", f"--g={g}"))
    argv.append(("bundle-splitting", "--lambdas=1/3,2,7/2,5,-4/5,11/7"))
    argv.append(("verify-all", "--lambdas=1/3,2,7/2,5,-4/5,11/7", "--budget=0.2"))
    for g in (2, 3, 4, 5):
        argv.append(("vandermonde", f"--g={g}"))
    argv.append(("vandermonde", "--lambdas=1/3,2,7/2,5,-4/5,11/7"))
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
        'e4f9a9cf454c48a7f6f5d49e9dfb9e5114d72e0ed868514b1cfaaf78162927ca',
    'verify-all --g=2 --seed=1 --budget=0.05':
        '7dd568bde33f29ecb206e2bbc3d1838386fd554f3d4301767ad9d78ca302dcd1',
    'verify-all --g=3 --seed=0 --budget=0.05':
        'ef0b55df60bcd9a4b21d34aca7d135e443aaf0263dcaae0d50b46d43609195a2',
    'verify-all --g=3 --seed=1 --budget=0.05':
        'a17334b33fcabe3dcfff11a694a3e3b905dd81f99f6f19ce8e0a35a6e8f1107d',
    'verify-all --g=4 --seed=0 --budget=0.05':
        '6e0dc0465a0275ceff9b510a9d2aa2d27a45ab48f77c67cc26edabe323c22a37',
    'verify-all --g=4 --seed=1 --budget=0.05':
        '1d8e2f6544c24c091655263ee765ca0ecc594439f7fd39b7cf50d80245667eb0',
    'verify-all --g=5 --seed=0 --budget=0.05':
        '5dce0313c06347c5e89e4b38bdda1f6d8d05360c4a0162632ead9d7d391bc99c',
    'verify-all --g=5 --seed=1 --budget=0.05':
        '79ad3d2401933568b644db634eeabeb516413eb8c422720ea9f3dbff8711a57e',
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
    'bundle-splitting --g=3':
        '0f972dcd86d998dd9fc27322396a576f7abb112aeaee89a8f789b9df485e0d36',
    'bundle-splitting --g=4':
        'ce92244e0558d09747b2e94c8620d495f168e2458b5376f75b501cd633f60e7b',
    'bundle-splitting --g=5':
        'ef3be34f24ebc6023854c7af7a097841eba37000e745c7276ba2415074b3e230',
    'bundle-splitting --g=6':
        '64b9ccc44cd12ee8d2a8eef8d5fdf5ee80d1645dce4bb1233e079b5c8cc2c679',
    'bundle-splitting --lambdas=1/3,2,7/2,5,-4/5,11/7':
        '66cbac644518cb6e0b4bbf0d633a6f06bfebc38e654f34e013c171e3569c02dd',
    'verify-all --lambdas=1/3,2,7/2,5,-4/5,11/7 --budget=0.2':
        'c55a9eea673b0a0bab6e3398cfd9259889ebc931b3c931080e8e38fa7072bd9d',
    'vandermonde --g=2':
        '8814ef03cda8d7dba3bacd9c12a878e70b23e67150e57195162b760ffd589567',
    'vandermonde --g=3':
        '3f195a241090ce9aa29acdc637c6b13f92e00216d181af324e6212a107636cb4',
    'vandermonde --g=4':
        '20c4921a05d75856387566fe447b5253f74fbe9b61f2b49af2e06a0bbecaea14',
    'vandermonde --g=5':
        'b9ed66f9c5d79e354c6761d472c95bb11503e5dee013b43bb3cb04073c733e90',
    'vandermonde --lambdas=1/3,2,7/2,5,-4/5,11/7':
        '41f3b0345ca6f8c51211edb73553d76d529a84e62edc6afdbda538097f54be61',
}


@pytest.mark.parametrize("argv", ARGV, ids=" ".join)
def test_report_bytes_unchanged(argv):
    assert report_digest(argv) == DIGESTS[" ".join(argv)], f"report of {' '.join(argv)} changed"



def digest_block(digests: dict) -> str:
    """The DIGESTS assignment of this file for `digests`, in its layout."""
    lines = ["DIGESTS = {"]
    for key, digest in digests.items():
        lines += [f"    {key!r}:", f"        {digest!r},"]
    return "\n".join(lines + ["}"]) + "\n"


def test_digest_block_is_the_committed_block():
    # the block printed by running this file is pasted as it stands: DIGESTS
    # holds one entry per command line, in ARGV order, and its source text
    # is digest_block(DIGESTS)
    assert list(DIGESTS) == [" ".join(argv) for argv in ARGV]
    with open(__file__, encoding="utf-8") as f:
        assert digest_block(DIGESTS) in f.read()


if __name__ == "__main__":
    print(digest_block({" ".join(argv): report_digest(argv) for argv in ARGV}), end="")
