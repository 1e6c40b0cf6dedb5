from . import grammar, tokenizer, vocab, encoder
from .tokenizer import InstructionRecord, tokenize, detokenize
from .vocab import PAD_ID, UNK_ID, MAX_TOKENS, VOCAB_SIZE, WORDS, WORD_TO_ID
from .grammar import generate_instruction
from .encoder import encode_instruction, init_instruction_params, positional_encoding, pad_mask
