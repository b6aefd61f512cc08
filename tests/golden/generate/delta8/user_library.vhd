-- user_library.vhd
-- Shared declarations: the topology selector type, word subtypes and the
-- conversion helpers every other unit relies on.
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

package user_library is

  -- Neighbourhood topology selector; NONE disables the network.
  type net_topology is (NONE, LINEAR, RING, MESH, TORUS, XNET);

  subtype data_word is std_logic_vector(31 downto 0);
  subtype half_word is std_logic_vector(15 downto 0);

  function to_word(value : integer) return data_word;
  function word_to_int(value : data_word) return integer;

end package user_library;

package body user_library is

  function to_word(value : integer) return data_word is
  begin
    return std_logic_vector(to_signed(value, 32));
  end function;

  function word_to_int(value : data_word) return integer is
  begin
    return to_integer(signed(value));
  end function;

end package body user_library;
