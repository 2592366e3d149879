(** The paper's overview examples, with the inferred-type fragments the
    test suite asserts and the bench harness prints ("F1"). *)

type example = {
  name : string;
  source : string;
  expectations : (string * string) list;
      (** (item, substring that must occur in its inferred type) *)
}

val max_example : example
val all : example list
