"""Golden stdout digests of the zeta3cf command line, and their runner.

Run with the interpreter whose zeta3cf is under test:

    PYTHONPATH=src python tests/golden.py     # the source tree
    venv/bin/python tests/golden.py           # an installed package

Each entry runs `python -m zeta3cf.cli ARGV` in a child process of this
interpreter.  It passes when the exit code and the sha256 of stdout match
the entry and nothing is written to stderr.  The runner prints one line per
failing entry and a count, and exits 1 if any entry fails.  It imports only
the standard library, so a venv without the test tools can run it.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys


# sha256 of stdout and the exit code for fixed argvs, recorded before
# stage terms and step entries were evaluated in integer Horner form: any
# change to the numeric kernels must leave every byte of stdout as it was.
# `rate N --n-max 200` was re-recorded when error_curve began sizing its
# reference from the convergent gap: it used to exit 2 on a too-short one.
# The ref/eval/rate shapes from 900 digits up were recorded before the two
# oracles and to_decimal moved off per-term and per-digit loops.  The
# gutnik json/csv, gutnik --v-max 300 and convergents APERY --n-max 300
# shapes were recorded before the tables stopped reducing each row with a
# full-size gcd.  The verify-chain and catalog shapes were recorded before
# the Gutnik offset search and the DEEP_CF depth escalation were deleted.
# The last four rate shapes were recorded before error_curve measured each
# row from the residual column instead of reducing x_n - L.  The
# convergents N --n-max 1000 and APERY --n-max 500 shapes, the largest
# tables the benchmark prints, were recorded before the printed p_n, q_n
# columns were walked as Decimals and json.dumps gave way to _emit_json.
# The last four gutnik shapes were recorded before the Nesterenko side
# stopped only at the printed rows and nes_gcd became a Decimal.  The four
# verify-chain shapes were re-recorded when the residual reference grew from
# 40 to 100 digits: each residual cell used to print the reference's own
# error, 2.15e-45, and now prints the stage's; no other byte changed.
# The thirteen eval shapes whose abs_error prints the reference's own error
# (A5 .. G at depth 300, APERY and N at 900 digits, G at 1377, A5 at 1001
# and N at 794 digits) were re-recorded when SERIES moved to Amdeberhan's
# series, floored once over 10**(digits+5): that error fell, 1.81e-35 to
# 1.52e-36 at 30 digits, and no other byte changed.
# The nine fault-injected verify-chain shapes, one per chain step with the
# formats cycled as the benchmark cycles them, were recorded before the
# symbolic column stopped building normal forms and began checking each
# identity at integer points.
# eval APERY --depth 300 --digits 900 and eval N --depth 1200 --digits 900
# were re-recorded when SERIES moved to Amdeberhan & Zeilberger's series:
# their abs_error prints the 910-digit reference's own error, which went
# from 1.03e-916 and 1.05e-916 to 2.10e-915 for both (the new floor is one
# ulp lower, still within 1.25 * 10**-915 of zeta(3)); no other byte changed.
# convergents APERY --n-max 600 --format csv and eval N --depth 10001 are
# new, not re-recordings: they were recorded from the stdout of the commit
# before this runner was added, where only CI checked their exit codes.
# The first prints p_n and q_n past 4300 digits through Decimal; the second
# is the --depth cap's error envelope.
# The last two entries are new, not re-recordings, recorded from the stdout
# of the commit before backward evaluation divided its product-tree nodes by
# their content: the backward-eval benchmark's H and Z requests at its p90
# sizes, the first deep backward evaluations printed as json and csv.
# The nine eval shapes at --depth 0 that close the list are new too, recorded
# from the stdout of the commit before backward evaluation multiplied a
# stage's forward step stream: the shortest product of each chain stage,
# the head and one step, or one step alone for APERY and N.
STDOUT_GOLDEN = (
    ("eval A5 --depth 300", 0, "d48096fef8a81c6b8fd11e8bf345d08fbd3e2c70d0210fcf0fa1d08ac92bb992"),
    ("eval W --depth 300", 0, "f207484bbc56c6674352e657688686edac5a48ede3bb92ab6b5cf70f44a9432b"),
    ("eval U --depth 300", 0, "adac415aca87a371f6059b934123b0bcd7edb06b2544bf31f884c776a63a9cd7"),
    ("eval P --depth 300", 0, "b7771e4b31cec3cf0eb2a722ed02c04a12656fbfb4732c5743a02bc5ebacb3ae"),
    ("eval Q --depth 300", 0, "269fcc2f43108b6e6a7df8cf76ffbf00e71f26fbb79521f37c4a9526a281c1fd"),
    ("eval Z --depth 300", 0, "c88d0ae5cedcf2c67a8dbb8856710cf6b31511dda55c0091841466b278636e0f"),
    ("eval H --depth 300", 0, "ede6d567469e78ff96a2829d0b545dc6f7d28c411fd87867f416dd72b345fb7e"),
    ("eval G --depth 300", 0, "f67beb2413a175c5d7a5e028a63f101014fecd80ddc2699875833c26b2cc7354"),
    ("convergents N --n-max 200 --format text", 0, "bf71591341d02bb3f6a1a89b74629cba1b0b3b9a356305b45129d094073a8856"),
    ("convergents APERY --n-max 100 --format text", 0, "b2c8ec3e22278875e217fe2b5730769e69197989866b508447204a2889f370f5"),
    ("convergents N --n-max 200 --format json", 0, "015eb58b8b2d378de11fae837f263aa6069bf75038589898edc9560a1db5c61b"),
    ("convergents APERY --n-max 100 --format json", 0, "3c33ed915dedbc31cac8b4c8af63c6abf74514ef79fe544a210dccfcae41c606"),
    ("convergents N --n-max 200 --format csv", 0, "ca869fbe291c1624ac8dad93c851a0a5f08dd9b59657ced7bd19b15ecca66597"),
    ("convergents APERY --n-max 100 --format csv", 0, "4fed03ce6074b8ba10a5a707415966a9454094d99cb970c687c2bb7ab4d156c4"),
    ("ref --digits 500", 0, "bb9764beaadc9841bc94bc1ee0a3453267a46cf6810a888c0f152ff8024044b9"),
    ("rate N --n-max 200", 0, "13818299638596a889e804e56ae451651e9464d8b46e124f0fdd4d6eabb83341"),
    ("gutnik --v-max 100", 0, "553e43747f8fb1a7e63797ebdc39e7f186a1b22fca69a2521f662a32ede58601"),
    ("ref --digits 1000 --format text", 0, "e1b43526fffe8220c3f27570a3da066f7981894c2988fda92bd7f428d1a4344f"),
    ("ref --digits 1000 --format json", 0, "73a8a0cbe0b064e6ecc9b25c2cf96b80dbe7dd9cdedd76b2608eb4972d256323"),
    ("ref --digits 1000 --format csv", 0, "e6566f0ca0fea3252f9826cc9d95d563dd3e73056ff4f3def8c8b718e4e570a2"),
    ("eval APERY --depth 300 --digits 900", 0, "da726f48e231bbd5fcc85113e03e5c9a6db6a469b1ab213f0ad2220495fe33a5"),
    ("eval N --depth 1200 --digits 900", 0, "b9e66daa8b08a11bf3df24eae7bfb7c417e34c35832f0c6735b7f1417e1c5c63"),
    ("rate N --n-max 600 --ref-digits 510", 0, "964c16f679cdcb3c9ef7949538abcba3b98d9201fca0cf5d270eae0bc686ecc4"),
    ("eval N --depth 10 --digits 5000", 0, "27a322beed40c8fc6a1a950c980e21277cd0891ea96e5d2d5875b1339c04de9e"),
    ("gutnik --v-max 100 --format json", 0, "d12302f780d7f7d3b0f7c805be8bd340489e8deedd7d44f15f70b96fcbcdb0ec"),
    ("gutnik --v-max 100 --format csv", 0, "8c95bf01c0534af81c1d26d8a732eea745f77958d4c7df2e9fc381526920297c"),
    ("gutnik --v-max 300", 0, "51d699ff3b52a5ccee0a5342688ac501786dc5afbe8880078f3f2fbafd361386"),
    ("convergents APERY --n-max 300 --format text", 0, "2da2a104222b7012397e94f3971c0c17ef0e3b7614750428fc48d0725005041f"),
    ("convergents APERY --n-max 300 --format json", 0, "a70183936ec2c4ff562089dc625f7bb9590f41d428a02cadcc8d194334edc070"),
    ("convergents APERY --n-max 300 --format csv", 0, "a9278ed3011752c230e8f1240a40291f2dbe4d4bac83401e78277510582f2024"),
    ("verify-chain --format text", 0, "36cf249748a32859f580f1755f8706cd4f59e725c0a730d31f9301d0e9645f9d"),
    ("verify-chain --format json", 0, "ad764a52a90cea6fc6df8442771bdbb38ecade2120fca8ad1f1280d82d9abb82"),
    ("verify-chain --format csv", 0, "720d223423429cbb78a0c0f06dd5aaa8c35f4b38030a9f27ac49cc7d5108ae2b"),
    ("catalog --format text", 0, "07df7d2256fb244bce96b32092196e40b9a96ac66a962973cc2c1c99ddbf8bd3"),
    ("catalog --format json", 0, "d8646431e5d5c5229a4b0446d0055e16a85ee9e816392d1d2bb0f48b756df6c7"),
    ("catalog --format csv", 0, "d44472dd74b9125a5427ca1d6166d893c555c22a697f1d68112919fc67a65e1d"),
    ("verify-chain --hook-break-sigma W", 1, "c3b2eb6be7672dbc44273725896fcaaa7cbf26dd475adc270828ac7a71ef1360"),
    ("verify-chain --hook-break-sigma A5 --format text", 1, "bb70d7245a80bb9c186e1f5cfaece2bffebce4fb1d84ad249bab30f3ecf58a2c"),
    ("verify-chain --hook-break-sigma W --format json", 1, "fe6301ab6d6117e71ab7aee10f5452d555269aef5a3b288cdc6893f2a0af0d0e"),
    ("verify-chain --hook-break-sigma U --format csv", 1, "93cf31df2a44b1e0461a69379d10a81e1c7e80395edc24845a49a66a992968ad"),
    ("verify-chain --hook-break-sigma P --format text", 1, "34ce879bba1061d4692614da59b90a86690296177c6f6a6b738093e413e19b2a"),
    ("verify-chain --hook-break-sigma Q --format json", 1, "2ad5dec2effd9f6228be32783286c5396b9473f29540d8bb1710070ba5a67bd1"),
    ("verify-chain --hook-break-sigma Z --format csv", 1, "fdc640b5745945adb55e2d74e64ed972f759fc0777966338d6aa76e3fd8e3d45"),
    ("verify-chain --hook-break-sigma H --format text", 1, "0b97c20f3a47256e1d9a7b15104c0540e28e67532cbc8ba405a8a743490041d9"),
    ("verify-chain --hook-break-sigma G --format json", 1, "a9511ee5ecc4bd27a96fa40782c08df4b81fd5829ac695b3b9129ba80a1c7d6f"),
    ("verify-chain --hook-break-sigma N --format csv", 1, "6285eb168cedfc7d584017305a0309ffe9e82d89aa6f9cdad089422e8b53b87c"),
    ("rate APERY --n-max 150 --ref-digits 495 --format json", 0, "72148efb4ba87073ca1f5dc6454a28933280b7a44ee5d8bba928907af3c995fc"),
    ("rate N --n-max 531 --ref-digits 454 --format csv", 0, "31484994829a5f045cee5ec89da19c6f807fe956821bc5e21e66352f807578db"),
    ("rate APERY --n-max 25 --window 5:25", 0, "4ea22b7ceb5a41c31ca43beda048add832ae7e716feb060d62215aff8fb9033d"),
    ("rate N --n-max 300 --ref-digits 30", 0, "78f86b35aa64e5bf65746c7394603e3d19bad060b15b21d3a587a04de979f901"),
    ("convergents N --n-max 1000 --format text", 0, "2036accaed4385512c814f404954b2d74659fd0df3180bbb5ae93239e98f97f3"),
    ("convergents N --n-max 1000 --format json", 0, "7138795c751ea68b4515b38aa5c50753588d0a9005fa21a4b6656f827a2f283c"),
    ("convergents N --n-max 1000 --format csv", 0, "9275b807224b82f27e58add75f1dc795718ee3cd415c033c44c7c303bd0d239f"),
    ("convergents APERY --n-max 500 --format text", 0, "c8092eeb4ac2db688724bd6baa879d8626f0b0057a6f56e3fa606a0b6f6cb94d"),
    ("convergents APERY --n-max 500 --format json", 0, "416929bfb0419e9361a6f282bf119c15ccfcb52ea768ceadaa183d4853bb1780"),
    ("convergents APERY --n-max 500 --format csv", 0, "cbec634cef7586896449caa57d02e10ef8c5cc8643db4b39e690e48bd8c1f7ac"),
    ("eval G --depth 1377", 0, "2873b247a6a1f750242c9ba45c3ef2223ac9c37922526118542ec91a1bfd875f"),
    ("eval A5 --depth 1001", 0, "c4e5173283eb8710b081f5bb7bcf78a29f55cc995a2ec27881f80e0b0dbb3737"),
    ("eval Q --depth 0", 0, "3f2a3a4fe26e9c24a3ce4bc7c0256ed6a683e52a4fbb77a58e9aef8e86eeeb70"),
    ("eval Q --depth 1", 0, "4b4cb9f4c1fb89ea586e937d0d124ad434feb169f4b18dd82a051d8c5341dc80"),
    ("eval Q --depth 2", 0, "ee37e83235186459c70efd5eab2719a4142e7918198f8f5a0a3c1b851a1f9a9f"),
    ("eval G16 --depth 400", 0, "19ab2133a89bfe50f5bdce447e1078d210024b7eed1bc6ed6dffcd8db16e9f6b"),
    ("eval N --depth 1059 --digits 794 --format json", 0, "592919928c0e1e43fe7e3515f65d944c1cbd7f55ca58d6e466a21ef9918c896b"),
    ("gutnik --v-max 476 --format json", 0, "aae3f002b678824aa78cff49d08f0428f2c11c855d112595d4d32af5f6aa8ccd"),
    ("gutnik --v-max 300 --format csv", 0, "d9f0432529e1293c922888069b05e03d73ee8458df41071cc0056fc987a455b5"),
    ("gutnik --hook-perturb --v-max 60", 1, "f0511c3fc33e0e7b85b5121e1d49df8692225ba172164fb6aff65be2aa19f0d3"),
    ("gutnik --hook-perturb --v-max 60 --format json", 1, "99b6129a42e4cba220b14a754b5c7e76b78b7ff2b68010fffa5f184e06ad39c7"),
    ("convergents APERY --n-max 600 --format csv", 0, "e7b48da4ffb8c0a0ad4d87b39f6b4237c3304278522f54f4f76a8b6e43f31609"),
    ("eval N --depth 10001", 2, "217e0f568d6c62652c18f6948972ef4f08c18acf9d034edb1c988d118b0a3a8e"),
    ("eval H --depth 1313 --format json", 0, "3c339d5c20de006b499feb91d5b1738afebdb27d3a2fed9744186c1b544ce343"),
    ("eval Z --depth 1262 --format csv", 0, "9123f6ed7a328ed512b97309cc0616ac27d4cdc163f2fd8e995564bf5219c156"),
    ("eval APERY --depth 0", 0, "80a319e1789423bf4e6c29036cbdc0c17d0737190ffec4cefa4ba398c892656e"),
    ("eval A5 --depth 0", 0, "c6f97514276d8791801612766149b0a80a481f42b7c64ace504a6300c86be553"),
    ("eval W --depth 0", 0, "bf93d0e9fbe0e705eaacd7aabaa6c1ba90b1e3e34ad9ee6bbdf8aa3e01c23e28"),
    ("eval U --depth 0", 0, "a47da4412c9ad3d8aa5ad921b14918b8e3ce94264e910951a15b4c0621abef4d"),
    ("eval P --depth 0", 0, "3cac7de19aba0997386063f413100dd8894de6b20c7164c4d0af715b6e5b49c0"),
    ("eval Z --depth 0", 0, "70e7c91ab13cab8bfb455ca6fdbf56eee088986009b12b8ff5fe98ba3c98e5b6"),
    ("eval H --depth 0", 0, "739ec0bd211f3f790f919aefe13a28d70f76b664da5e7da5995c15bf4d26a0cc"),
    ("eval G --depth 0", 0, "b4a332e49a42e56cd945f58bb11fc3096ff504059d22dce3b4f6b50762ff4a1c"),
    ("eval N --depth 0", 0, "63f27c9b71ae64ee34c577d0be76ae1db8a571e066bc15f77c7272a3cdaaca45"),
)


def main(entries=STDOUT_GOLDEN) -> int:
    failed = 0
    for argv, code, digest in entries:
        command = [sys.executable, "-m", "zeta3cf.cli", *argv.split()]
        run = subprocess.run(command, capture_output=True)
        got = hashlib.sha256(run.stdout).hexdigest()
        if (run.returncode, got, run.stderr) != (code, digest, b""):
            failed += 1
            print(
                f"{argv}: exit {run.returncode}, stdout sha256 {got},"
                f" {len(run.stderr)} stderr bytes; want exit {code},"
                f" stdout sha256 {digest}, no stderr"
            )
    print(f"{len(entries)} golden entries run, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
