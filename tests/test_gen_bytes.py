"""Pinned bytes of `gen`: the sha256 of every file it writes, the edge list
and each certificate JSON, for every family at two seeds.  Each family
builds its instance and certificates in one pass; these digests were taken
from the generators that built them in separate passes and wrote every
weight through its own Fraction, so any drift in the random stream, the
edge order, a weight's text or a certificate's layout shows here.  The
series-parallel and triangulation cases at n = 5,000 draw from many blocks
of the generators' blocked lists."""

from __future__ import annotations

import hashlib
import os

import pytest

from wdcolor.cli import main

WEIGHTED = ["--weight-lo", "1/4", "--weight-hi", "1", "--weight-den", "4"]

# case id -> gen argv after the family, both seeds taking the same argv
CASES = {
    "path-50": ["path", "--n", "50"],
    "path-50-w": ["path", "--n", "50"] + WEIGHTED,
    "path-1": ["path", "--n", "1"],
    "path-2": ["path", "--n", "2"],
    "path-3-w": ["path", "--n", "3"] + WEIGHTED,
    "grid-6x7": ["grid", "--rows", "6", "--cols", "7"],
    "grid-6x7-w": ["grid", "--rows", "6", "--cols", "7"] + WEIGHTED,
    "grid-1x5": ["grid", "--rows", "1", "--cols", "5"],
    "grid-5x1-w": ["grid", "--rows", "5", "--cols", "1"] + WEIGHTED,
    "grid-1x1": ["grid", "--rows", "1", "--cols", "1"],
    "grid-4x4-const2": ["grid", "--rows", "4", "--cols", "4", "--weight-lo", "2", "--weight-hi", "2"],
    "cycle-30": ["cycle", "--n", "30"],
    "cycle-30-w": ["cycle", "--n", "30"] + WEIGHTED,
    "cycle-3": ["cycle", "--n", "3"],
    "ktree1-40": ["ktree", "--k", "1", "--n", "40"],
    "ktree2-40": ["ktree", "--k", "2", "--n", "40"],
    "ktree2-40-w": ["ktree", "--k", "2", "--n", "40"] + WEIGHTED,
    "ktree3-40": ["ktree", "--k", "3", "--n", "40"],
    "ktree2-3": ["ktree", "--k", "2", "--n", "3"],
    "sp-60": ["random-series-parallel", "--n", "60"],
    "sp-60-w": ["random-series-parallel", "--n", "60"] + WEIGHTED,
    "sp-5000": ["random-series-parallel", "--n", "5000"],
    "sp-2": ["random-series-parallel", "--n", "2"],
    "sp-3": ["random-series-parallel", "--n", "3"],
    "tri-60": ["random-planar-triangulation", "--n", "60"],
    "tri-60-w": ["random-planar-triangulation", "--n", "60"] + WEIGHTED,
    "tri-5000": ["random-planar-triangulation", "--n", "5000"],
    "tri-3": ["random-planar-triangulation", "--n", "3"],
    "overlay-6x7": ["random-weights-overlay", "--base", "{base}", "--weight-lo", "1/3", "--weight-hi", "5/2",
                    "--weight-den", "6"],
}

SEEDS = (1, 7)


def gen_digests(tmp_path, capsys, case: str, seed: int) -> dict:
    """{file suffix: sha256} of every file `gen` writes for one case; the
    overlay's base is the unit 6x7 grid."""
    base = str(tmp_path / "base")
    assert main(["gen", "grid", "--rows", "6", "--cols", "7", "--out", base]) == 0
    prefix = str(tmp_path / "out")
    argv = [a.replace("{base}", base + ".txt") for a in CASES[case]]
    assert main(["gen"] + argv + ["--seed", str(seed), "--out", prefix]) == 0
    capsys.readouterr()
    out = {}
    for name in sorted(os.listdir(tmp_path)):
        if name.startswith("out."):
            with open(tmp_path / name, "rb") as fh:
                out[name[len("out."):]] = hashlib.sha256(fh.read()).hexdigest()
    return out


# case/seed -> {file suffix: sha256}
DIGESTS = {
    'cycle-3/1': {
        'rotation.json': '4092a413103e63bda7d5bf742e698778a68c109bf156c1b85b989fb891a88392',
        'txt': '966b89dd092363a4a39781cb9a181b31ae886e3555ce6281ba19a7363c5b2e9f',
    },
    'cycle-3/7': {
        'rotation.json': '4092a413103e63bda7d5bf742e698778a68c109bf156c1b85b989fb891a88392',
        'txt': '966b89dd092363a4a39781cb9a181b31ae886e3555ce6281ba19a7363c5b2e9f',
    },
    'cycle-30/1': {
        'rotation.json': '3853bf4db9633b6481a035f3d8e2dfd6c4d787ad525750cfe8b81dd08c9e826f',
        'txt': '539d20e9f6bd3a2d2cf73ea7c9f5095567ded84de734b98bcece74925466aeab',
    },
    'cycle-30/7': {
        'rotation.json': '3853bf4db9633b6481a035f3d8e2dfd6c4d787ad525750cfe8b81dd08c9e826f',
        'txt': '539d20e9f6bd3a2d2cf73ea7c9f5095567ded84de734b98bcece74925466aeab',
    },
    'cycle-30-w/1': {
        'rotation.json': '3853bf4db9633b6481a035f3d8e2dfd6c4d787ad525750cfe8b81dd08c9e826f',
        'txt': '20105efa004c00863dddde114a6fc75292c8a261ce2ba11141b9efdbff596750',
    },
    'cycle-30-w/7': {
        'rotation.json': '3853bf4db9633b6481a035f3d8e2dfd6c4d787ad525750cfe8b81dd08c9e826f',
        'txt': '2c58b8a9b5da4209f7d0cdec393b81e29b8101ab590a7fe0db76ecc56f2d6eea',
    },
    'grid-1x1/1': {
        'layers.json': 'c0fcddef5a74251e6873cd63f0f08ac9529c68e4198f88fba10e2675f1cd5893',
        'rotation.json': '63ea985e540ced44e453873323e35545de2bb3468a8038be7b39f87737c5ce02',
        'td.json': 'd63709fb01a6937d186ea6cbd7546fafafe71877f1a6f147b1a953377c529d50',
        'tripods.json': '54de7763792a7686cda1464c55650f2d8d52d4047e272ac1702aa2ad2f54af71',
        'txt': '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    },
    'grid-1x1/7': {
        'layers.json': 'c0fcddef5a74251e6873cd63f0f08ac9529c68e4198f88fba10e2675f1cd5893',
        'rotation.json': '63ea985e540ced44e453873323e35545de2bb3468a8038be7b39f87737c5ce02',
        'td.json': 'd63709fb01a6937d186ea6cbd7546fafafe71877f1a6f147b1a953377c529d50',
        'tripods.json': '54de7763792a7686cda1464c55650f2d8d52d4047e272ac1702aa2ad2f54af71',
        'txt': '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    },
    'grid-1x5/1': {
        'layers.json': 'b8e46fa7f7622ec5ae4f5403e2f787c7aaaafadd60b335adb2676b070154a702',
        'rotation.json': '1048a71a8edc6ebe8424d1581004cfbc5807dd850790b5203fb1add299b4c208',
        'td.json': '43b7b0632149e93a8875a440698327a7a5d7d696c2670e7a24e467c612bb2814',
        'tripods.json': 'c70751e615d421407f27dcddcfee1ca34a9df9bd3bc5336771abb0f0a4c1f0a7',
        'txt': '704a043280a5d22655f5600befc995ec3ac49ce9cee9fb089f411e2d68426a08',
    },
    'grid-1x5/7': {
        'layers.json': 'b8e46fa7f7622ec5ae4f5403e2f787c7aaaafadd60b335adb2676b070154a702',
        'rotation.json': '1048a71a8edc6ebe8424d1581004cfbc5807dd850790b5203fb1add299b4c208',
        'td.json': '43b7b0632149e93a8875a440698327a7a5d7d696c2670e7a24e467c612bb2814',
        'tripods.json': 'c70751e615d421407f27dcddcfee1ca34a9df9bd3bc5336771abb0f0a4c1f0a7',
        'txt': '704a043280a5d22655f5600befc995ec3ac49ce9cee9fb089f411e2d68426a08',
    },
    'grid-4x4-const2/1': {
        'layers.json': 'cb07900eca15150467de7d5bcea14e5b847c677b296458d1dd6002bde6fb2478',
        'rotation.json': '0548f725a6cea61b9af39af3fe8b3d2c52da66f32ca103aa3b22d84bf904bd1c',
        'td.json': 'fd2c8d39e043e57bc9753820364727183bc76aed158b9587fa871425f7c8a98c',
        'txt': 'a6a8aea4c4c134efdd536d42310c1a528ed4a24e4d22f2eb79bc907b5b7829d6',
    },
    'grid-4x4-const2/7': {
        'layers.json': 'cb07900eca15150467de7d5bcea14e5b847c677b296458d1dd6002bde6fb2478',
        'rotation.json': '0548f725a6cea61b9af39af3fe8b3d2c52da66f32ca103aa3b22d84bf904bd1c',
        'td.json': 'fd2c8d39e043e57bc9753820364727183bc76aed158b9587fa871425f7c8a98c',
        'txt': 'a6a8aea4c4c134efdd536d42310c1a528ed4a24e4d22f2eb79bc907b5b7829d6',
    },
    'grid-5x1-w/1': {
        'layers.json': 'cfa3cfc8b632c7ff21ede1a6f958a3931036b0373ef318f8ac53a4454a046164',
        'rotation.json': 'd181c6c716702c6d4724f9813b8a8bad02b19a3bd48253aba04d4d2f8beea71f',
        'td.json': 'd5da14ba445b483543fdf6f15c43b47d870eea4333cdb5bbf7e71b3df208bf89',
        'txt': '9aa0ee753704577a4cb5c5517a8ed386929038a49862776407d3d7c0e95b1e76',
    },
    'grid-5x1-w/7': {
        'layers.json': 'cfa3cfc8b632c7ff21ede1a6f958a3931036b0373ef318f8ac53a4454a046164',
        'rotation.json': 'd181c6c716702c6d4724f9813b8a8bad02b19a3bd48253aba04d4d2f8beea71f',
        'td.json': 'd5da14ba445b483543fdf6f15c43b47d870eea4333cdb5bbf7e71b3df208bf89',
        'txt': 'eae8aea895ce41330b75a2b0b9e81b2dcfcbf5cf276efc734857c63da70788eb',
    },
    'grid-6x7/1': {
        'layers.json': '0f7326753f5011e3c3c27a670d298bdbeb7ac3efec08e857c3cde8f578be0be7',
        'rotation.json': 'ab7853d29f39f821a3cc1b6a3c9455695b3d491229dacb1d98e783c5646b2723',
        'td.json': '998b090e5f77746adaafbff52a262ee2f1e992d2ecff2a57a5b328078e9253ed',
        'tripods.json': '2cb63d00b11e03a136929beb43c3115b946f2474f33b8e080672f490a52da5d8',
        'txt': '48eb9e23eb39a9e1dc99197e0e6e15c87f3bd9cb3affa9d77ae9166892183d4f',
    },
    'grid-6x7/7': {
        'layers.json': '0f7326753f5011e3c3c27a670d298bdbeb7ac3efec08e857c3cde8f578be0be7',
        'rotation.json': 'ab7853d29f39f821a3cc1b6a3c9455695b3d491229dacb1d98e783c5646b2723',
        'td.json': '998b090e5f77746adaafbff52a262ee2f1e992d2ecff2a57a5b328078e9253ed',
        'tripods.json': '2cb63d00b11e03a136929beb43c3115b946f2474f33b8e080672f490a52da5d8',
        'txt': '48eb9e23eb39a9e1dc99197e0e6e15c87f3bd9cb3affa9d77ae9166892183d4f',
    },
    'grid-6x7-w/1': {
        'layers.json': '0f7326753f5011e3c3c27a670d298bdbeb7ac3efec08e857c3cde8f578be0be7',
        'rotation.json': 'ab7853d29f39f821a3cc1b6a3c9455695b3d491229dacb1d98e783c5646b2723',
        'td.json': '998b090e5f77746adaafbff52a262ee2f1e992d2ecff2a57a5b328078e9253ed',
        'txt': 'f3c455d1dc7cdbda270c527bc04b7d0a7547eee06e94a65c3f0cd4b61a92d6c7',
    },
    'grid-6x7-w/7': {
        'layers.json': '0f7326753f5011e3c3c27a670d298bdbeb7ac3efec08e857c3cde8f578be0be7',
        'rotation.json': 'ab7853d29f39f821a3cc1b6a3c9455695b3d491229dacb1d98e783c5646b2723',
        'td.json': '998b090e5f77746adaafbff52a262ee2f1e992d2ecff2a57a5b328078e9253ed',
        'txt': 'ab5ee1b9aef1dbab230c2757880fb630af6582819710d8c0b6b4f73814686caf',
    },
    'ktree1-40/1': {
        'td.json': '89530f7e01e1219d71f27701c149797dc42fd773f26b82029ab0a966e660d244',
        'txt': '2ff89ff67deb6a0be265f2eea39acff0412a85e06c78fa4e1e8e25a5e485cee7',
    },
    'ktree1-40/7': {
        'td.json': 'c715250b90203122923d54ae9b680a4bdd45a2b4f78857d74a0e8195363a9f27',
        'txt': 'c2daebeda3b7015f6801e41a90ff142424541824ea00530fc0b04701b02cd076',
    },
    'ktree2-3/1': {
        'td.json': '23cdff96ff929aa44e679896f2f0af807b548c97cbe1ff0c341ba5c72b988241',
        'txt': 'd1d2499d57a2498e8cfa09949feeda1b450cf3a48e96bd840a65408e42b76083',
    },
    'ktree2-3/7': {
        'td.json': '23cdff96ff929aa44e679896f2f0af807b548c97cbe1ff0c341ba5c72b988241',
        'txt': 'd1d2499d57a2498e8cfa09949feeda1b450cf3a48e96bd840a65408e42b76083',
    },
    'ktree2-40/1': {
        'td.json': 'baa1aa3815f3419082517fee42c7f0241614ac128dc82530dbc1716f0deeccaf',
        'txt': '6f1c6ca80b585a229a4cf6880384345a0db4b529c7b0ebff22b53061750b7be8',
    },
    'ktree2-40/7': {
        'td.json': '7d25828382b775dbc303eff9c2cd3d6457ebc4b44351f0984aa5bf03c881f99e',
        'txt': 'd9ce86d699bc26556a343d81125a4f50081027c4443bbac5647b5a896a3d5ad2',
    },
    'ktree2-40-w/1': {
        'td.json': 'baa1aa3815f3419082517fee42c7f0241614ac128dc82530dbc1716f0deeccaf',
        'txt': 'c781db3345b7dd3d73b581d6aaea21277e5b9a5e6f2aed0f2f4be65c853489a7',
    },
    'ktree2-40-w/7': {
        'td.json': '7d25828382b775dbc303eff9c2cd3d6457ebc4b44351f0984aa5bf03c881f99e',
        'txt': '5a2cff7046db892743788eb0d94a673199a86993ff7e0a247386474b51ac1ed1',
    },
    'ktree3-40/1': {
        'td.json': '8fba3a8081cd3a732b9612ebaf5782ac7d155263463098e6132898764c31bc45',
        'txt': '8b9e63e7a2e23b213e89955173ae8f59aac87156a6a6f8c71abff938e25bca57',
    },
    'ktree3-40/7': {
        'td.json': '4b9fbf9f8c67740f6dbd525db554d1ae7363f6cd63d9d0673913e7d967f93616',
        'txt': '1d2dd57963fdefa14d1aae8feef3e023d8ec85d41d98de902ea7d2481e845853',
    },
    'overlay-6x7/1': {
        'txt': 'e7166d7c87d9e7957f47bcd1d592a1e78e24adabeed6a4c0c5d54edc84a81cbb',
    },
    'overlay-6x7/7': {
        'txt': '2fed4199dbff37d3b351b9acbfd6546235b030fbe94f3b7d7e8e370c022f8033',
    },
    'path-1/1': {
        'layers.json': 'c0fcddef5a74251e6873cd63f0f08ac9529c68e4198f88fba10e2675f1cd5893',
        'td.json': 'd63709fb01a6937d186ea6cbd7546fafafe71877f1a6f147b1a953377c529d50',
        'txt': '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    },
    'path-1/7': {
        'layers.json': 'c0fcddef5a74251e6873cd63f0f08ac9529c68e4198f88fba10e2675f1cd5893',
        'td.json': 'd63709fb01a6937d186ea6cbd7546fafafe71877f1a6f147b1a953377c529d50',
        'txt': '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    },
    'path-2/1': {
        'layers.json': 'ab7ec26a5feb5f9a2f0a400986575646ca0ea4e2a6339ac2415538be599687c8',
        'td.json': 'cb04f7f9e6e64441d5ca78d24bb3ec29d2382829373cffeb7991008c51d9ab40',
        'txt': 'ce05c204ff512d9fc2b2c25b2c1dbcbb5d731d6e8652bf35ee798862fdea29d8',
    },
    'path-2/7': {
        'layers.json': 'ab7ec26a5feb5f9a2f0a400986575646ca0ea4e2a6339ac2415538be599687c8',
        'td.json': 'cb04f7f9e6e64441d5ca78d24bb3ec29d2382829373cffeb7991008c51d9ab40',
        'txt': 'ce05c204ff512d9fc2b2c25b2c1dbcbb5d731d6e8652bf35ee798862fdea29d8',
    },
    'path-3-w/1': {
        'layers.json': '1d053e54eded7b42038a5eba1bcf0fc251b0357b28bab8922dd4648c5093e209',
        'td.json': '0f9815737f652df160538f1d1490c1170f0361109629126b98fc903eb0cb8087',
        'txt': 'ef0eff20df4bd3b0d2416a66d9c49e77edf0bf0988a62a93459ebad9f672a063',
    },
    'path-3-w/7': {
        'layers.json': '1d053e54eded7b42038a5eba1bcf0fc251b0357b28bab8922dd4648c5093e209',
        'td.json': '0f9815737f652df160538f1d1490c1170f0361109629126b98fc903eb0cb8087',
        'txt': '7321072160b360a42aca4a9b56d6fa732d8ee5a50b55fa7b710f7330c122c8fc',
    },
    'path-50/1': {
        'layers.json': '542fe9830c153c2d169c2f26f99fe11d8f83c665d608af03948217d7acd91b8e',
        'td.json': '083b6581cf65ed526a84553cda6091176507487c296439a33296bcd3af6c0247',
        'txt': 'eade5eeedb9f3d790f577e00b2f3c8c825977832ec14f7f4ffa60034e46c4626',
    },
    'path-50/7': {
        'layers.json': '542fe9830c153c2d169c2f26f99fe11d8f83c665d608af03948217d7acd91b8e',
        'td.json': '083b6581cf65ed526a84553cda6091176507487c296439a33296bcd3af6c0247',
        'txt': 'eade5eeedb9f3d790f577e00b2f3c8c825977832ec14f7f4ffa60034e46c4626',
    },
    'path-50-w/1': {
        'layers.json': '542fe9830c153c2d169c2f26f99fe11d8f83c665d608af03948217d7acd91b8e',
        'td.json': '083b6581cf65ed526a84553cda6091176507487c296439a33296bcd3af6c0247',
        'txt': '54812f35a8076761b10adf9ae1e00a5bc381bb16f7cde23c5da9d3ee0c4069aa',
    },
    'path-50-w/7': {
        'layers.json': '542fe9830c153c2d169c2f26f99fe11d8f83c665d608af03948217d7acd91b8e',
        'td.json': '083b6581cf65ed526a84553cda6091176507487c296439a33296bcd3af6c0247',
        'txt': '17b9991f52a46919fcaeb4ce862d189a033520e2fb3831eecd95e9faefa6ff04',
    },
    'sp-2/1': {
        'txt': 'ce05c204ff512d9fc2b2c25b2c1dbcbb5d731d6e8652bf35ee798862fdea29d8',
    },
    'sp-2/7': {
        'txt': 'ce05c204ff512d9fc2b2c25b2c1dbcbb5d731d6e8652bf35ee798862fdea29d8',
    },
    'sp-3/1': {
        'txt': '167dec4e9a8998024f18df135ad741821b5a56df68156c38fcb89f91cdde2f6d',
    },
    'sp-3/7': {
        'txt': '167dec4e9a8998024f18df135ad741821b5a56df68156c38fcb89f91cdde2f6d',
    },
    'sp-5000/1': {
        'txt': '7c8e01142a451f3bc99063ea724d3ebcca18c5ca30f7fcdeb1184cea44f59c61',
    },
    'sp-5000/7': {
        'txt': '349a78532fa6db6650133baee26039a06d8a406e19cdfdcad7811e70ddf16d17',
    },
    'sp-60/1': {
        'txt': '8cb8a988a58dd2e9f7e43a09063f402963be4a62639e5f5f712d6c05363919df',
    },
    'sp-60/7': {
        'txt': '9b74804903bf0d447bb86831fcc5d842f2c682e1ce3f9a9318a5f373c38c1f49',
    },
    'sp-60-w/1': {
        'txt': '5d53cb35758e701100193f229df06e93afa44da19a00287ccb4e768f1ae6691d',
    },
    'sp-60-w/7': {
        'txt': '29d193d1621ca79fb6304cf06a76ae19021fd018bfbbc3dcc257b2e20fd9d021',
    },
    'tri-3/1': {
        'rotation.json': 'e2be5d1c5d5b73545624edbd3fb82583ed78184f1b5a60a6abcb0235c9857c78',
        'txt': 'd1d2499d57a2498e8cfa09949feeda1b450cf3a48e96bd840a65408e42b76083',
    },
    'tri-3/7': {
        'rotation.json': 'e2be5d1c5d5b73545624edbd3fb82583ed78184f1b5a60a6abcb0235c9857c78',
        'txt': 'd1d2499d57a2498e8cfa09949feeda1b450cf3a48e96bd840a65408e42b76083',
    },
    'tri-5000/1': {
        'rotation.json': '4b0acb95b179b654a27d770736e4e83e7077f3633f3670af7a38e85707b7884e',
        'txt': 'f6a1a468cae2c02f3dca88121926fcfecf2c1be2ade71b8659e75fde872b6427',
    },
    'tri-5000/7': {
        'rotation.json': '41b53afaae3f61d2324b098451402a45b6d4d0479ff988acc857f2786c0eba53',
        'txt': 'c36404004b6748120995ae497448837e5e636ed02b082c67d2c35b380344a332',
    },
    'tri-60/1': {
        'rotation.json': '0a8c9d89554b812738cc4579ee7110107658b5da096efd7f3945b5496907db59',
        'txt': '95387616b6c591a8aaac79063802d818f2a8886072ef2e0aa1fbb8aa95b7efa6',
    },
    'tri-60/7': {
        'rotation.json': '8f63c099d13905566bd565a136355004378fa268787a341b7e77371456580967',
        'txt': '16c11f6347d4d426ade0cfb73459019a303d6efbf1f0ff05735864e6a12375d1',
    },
    'tri-60-w/1': {
        'rotation.json': '0a8c9d89554b812738cc4579ee7110107658b5da096efd7f3945b5496907db59',
        'txt': 'f08582e8e27c4bf95e75390dfcdfc1361238470035f099160892513e2642cd49',
    },
    'tri-60-w/7': {
        'rotation.json': '8f63c099d13905566bd565a136355004378fa268787a341b7e77371456580967',
        'txt': '28b2e5f47a7de07348bf5c14887e3ae1cb462f8bbcede33762977db6f9d46b91',
    },
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_gen_files_keep_their_bytes(tmp_path, capsys, case, seed):
    assert gen_digests(tmp_path, capsys, case, seed) == DIGESTS["%s/%d" % (case, seed)]
