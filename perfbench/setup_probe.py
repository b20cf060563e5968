"""Import textpersona and load what every run loads before it touches data.

Usage: python setup_probe.py RUN_CONFIG

The parent times this whole process: interpreter start, imports, the
run config, the lexicon (parse and compile), the word list and the model.
"""

import sys

from textpersona import RunConfig, compile_lexicon, load_model, load_word_list, parse_lexicon

config = RunConfig.from_file(sys.argv[1])
compile_lexicon(parse_lexicon(config.lexicon_path))
load_word_list(config.word_list_path)
load_model(config.model_path)
